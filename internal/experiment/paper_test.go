package experiment

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestPaperCurveMatchesCheckedIn regenerates the accuracy-vs-communication
// curve and requires it to equal BENCH_paper.json field for field. The
// curve is deterministic, so any difference is a behaviour change in the
// pipeline: regenerate the file with `benchfigs -fig paper` and commit it
// with the change that moved it. Only the host fields may differ.
func TestPaperCurveMatchesCheckedIn(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_paper.json")
	if err != nil {
		t.Fatal(err)
	}
	var want PaperReport
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got, err := RunPaper(false)
	if err != nil {
		t.Fatal(err)
	}
	got.GoVersion, got.GOOS, got.GOARCH = want.GoVersion, want.GOOS, want.GOARCH
	if reflect.DeepEqual(got, want) {
		return
	}
	if got.Name != want.Name || got.Seed != want.Seed || len(got.Points) != len(want.Points) {
		t.Fatalf("curve header differs: got %s seed %d with %d points, checked in %s seed %d with %d points",
			got.Name, got.Seed, len(got.Points), want.Name, want.Seed, len(want.Points))
	}
	for i := range got.Points {
		if got.Points[i] != want.Points[i] {
			t.Errorf("point %d:\n got  %+v\n want %+v", i, got.Points[i], want.Points[i])
		}
	}
}
