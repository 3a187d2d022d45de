package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// PaperPoint is one ε on the accuracy-vs-communication curve: how close
// SinglePath's top-k scores get to the exhaustive DP benchmark, against
// the uplink messages RayTrace filtering actually sent. This is the
// paper's central trade-off (Figures 7/8 read together): a larger ε buys
// communication savings with index-size and score drift.
type PaperPoint struct {
	Eps           float64 `json:"eps"`
	Accuracy      float64 `json:"accuracy"` // SP top-k score / DP top-k score
	SPScore       float64 `json:"sp_score"`
	DPScore       float64 `json:"dp_score"`
	SPIndexSize   float64 `json:"sp_index_size"`
	DPIndexSize   float64 `json:"dp_index_size"`
	UpMessages    int     `json:"up_messages"`
	NaiveMessages int     `json:"naive_messages"`
	Compression   float64 `json:"compression"` // naive / raytrace messages
}

// PaperReport is the paper_accuracy artifact (BENCH_paper.json). Every
// numeric field is deterministic under the fixed seed, so regenerating
// the file on an unchanged tree is a no-op diff — drift in the curve is a
// behaviour change, not noise, and TestPaperCurveMatchesCheckedIn fails
// on it.
type PaperReport struct {
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	Name      string       `json:"name"` // always "paper_accuracy"
	Seed      int64        `json:"seed"`
	Points    []PaperPoint `json:"points"`
}

// paperEps are the swept tolerances: the QuickBase network is 3 km
// across, so the range spans "almost exact" to "very loose" like the
// paper's Figure 8 x-axis does at city scale.
var paperEps = []float64{2.5, 5, 10, 20}

// paperSeed fixes the QuickBase configuration the curve is drawn from.
const paperSeed = 21

// RunPaper regenerates the accuracy-vs-communication curve on the
// scaled-down QuickBase configuration (seconds, not the full Section 6
// run — `benchfigs -fig 8` sweeps ε at paper scale).
func RunPaper(verbose bool) (PaperReport, error) {
	rep := PaperReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Name:      "paper_accuracy",
		Seed:      paperSeed,
	}
	base, err := QuickBase(paperSeed)
	if err != nil {
		return rep, fmt.Errorf("paper_accuracy: %w", err)
	}
	rows, err := SweepEps(base, paperEps)
	if err != nil {
		return rep, fmt.Errorf("paper_accuracy: %w", err)
	}
	for _, r := range rows {
		p := PaperPoint{
			Eps:           r.Param,
			SPScore:       r.SPScore,
			DPScore:       r.DPScore,
			SPIndexSize:   r.SPIndexSize,
			DPIndexSize:   r.DPIndexSize,
			UpMessages:    r.UpMessages,
			NaiveMessages: r.Measurements,
		}
		if r.DPScore > 0 {
			p.Accuracy = r.SPScore / r.DPScore
		}
		if r.UpMessages > 0 {
			p.Compression = float64(r.Measurements) / float64(r.UpMessages)
		}
		rep.Points = append(rep.Points, p)
		if verbose {
			fmt.Fprintf(os.Stderr, "paper_accuracy eps=%-5g accuracy=%.3f compression=%.1fx (%d/%d msgs)\n",
				p.Eps, p.Accuracy, p.Compression, p.UpMessages, p.NaiveMessages)
		}
	}
	return rep, nil
}

// WriteFile serialises the curve as indented JSON, newline-terminated so
// the artifact diffs cleanly in git.
func (r PaperReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
