package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"time"

	"hotpaths"
	"hotpaths/internal/partition"
)

// statsView is the subset of GET /stats the correctness checks compare.
type statsView struct {
	Observations int   `json:"observations"`
	Reports      int   `json:"reports"`
	IndexSize    int   `json:"index_size"`
	Epoch        int   `json:"epoch"`
	Clock        int64 `json:"clock"`
}

// reference feeds the first n timestamps of a workload's input to an
// in-process System, one Observe per measurement and one Tick per
// timestamp. With lay non-nil each timestamp's Observe loop and Tick are
// timed as spans.
func reference(kind string, seed, n int64, lay *layers) (*hotpaths.System, error) {
	sys, err := hotpaths.New(pipelineConfig)
	if err != nil {
		return nil, err
	}
	err = replay(kind, seed, n, func(t int64, obs []hotpaths.ObservationJSON) error {
		t0 := time.Now()
		for _, o := range obs {
			if err := sys.Observe(o.Object, o.X, o.Y, o.T); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if err := sys.Tick(t); err != nil {
			return err
		}
		if lay != nil {
			lay.systemFilter += t1.Sub(t0)
			tick := time.Since(t1)
			lay.systemTick += tick
			lay.systemObs += len(obs)
			if t%pipelineConfig.Epoch == 0 {
				lay.coordEpoch.add(tick)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reference System: %w", err)
	}
	if lay != nil {
		lay.final = sys.Stats()
	}
	return sys, nil
}

// getJSON fetches url with the probe client and decodes a 200 answer.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// answers is what a daemon or gateway must serve: its /topk, its full
// /paths (nil to skip) and its /stats counters.
type answers struct {
	topk, all []hotpaths.PathJSON
	stats     statsView
}

// singleAnswers are a single daemon's answers: those of the reference
// System.
func singleAnswers(sys *hotpaths.System) answers {
	ss := sys.Stats()
	return answers{
		topk: hotpaths.PathsJSON(sys.TopK()),
		stats: statsView{
			Observations: ss.Observations,
			Reports:      ss.Reports,
			IndexSize:    ss.IndexSize,
			Epoch:        ss.Epochs,
			Clock:        sys.Clock(),
		},
	}
}

// fleetReference feeds each partition's share of the first n timestamps
// to its own System, as the fleet's partitions receive them.
func fleetReference(kind string, seed, n int64, parts int) ([]*hotpaths.System, error) {
	systems := make([]*hotpaths.System, parts)
	for i := range systems {
		s, err := hotpaths.New(pipelineConfig)
		if err != nil {
			return nil, err
		}
		systems[i] = s
	}
	err := replay(kind, seed, n, func(t int64, obs []hotpaths.ObservationJSON) error {
		for _, o := range obs {
			if err := systems[partition.Index(o.Object, parts)].Observe(o.Object, o.X, o.Y, o.T); err != nil {
				return err
			}
		}
		for _, s := range systems {
			if err := s.Tick(t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("partition reference Systems: %w", err)
	}
	return systems, nil
}

// fleetAnswers are the answers the gateway's documented merge yields
// over the partition Systems: paths merged by content-addressed id with
// hotness summed and re-sorted hottest-first, counters summed, and the
// shared epoch and clock.
func fleetAnswers(systems []*hotpaths.System) answers {
	byID := map[uint64]hotpaths.HotPath{}
	var st statsView
	for _, s := range systems {
		for _, hp := range s.HotPaths() {
			if prev, ok := byID[hp.ID]; ok {
				hp.Hotness += prev.Hotness
			}
			byID[hp.ID] = hp
		}
		ss := s.Stats()
		st.Observations += ss.Observations
		st.Reports += ss.Reports
		st.IndexSize += ss.IndexSize
		st.Epoch = max(st.Epoch, ss.Epochs)
		st.Clock = max(st.Clock, s.Clock())
	}
	all := make([]hotpaths.HotPath, 0, len(byID))
	for _, hp := range byID {
		all = append(all, hp)
	}
	hotpaths.SortResults(all, hotpaths.ByHotness)
	top := all
	if len(top) > pipelineConfig.K {
		top = top[:pipelineConfig.K]
	}
	return answers{topk: hotpaths.PathsJSON(top), all: hotpaths.PathsJSON(all), stats: st}
}

// checkAnswers compares what url serves with want.
func checkAnswers(ctx context.Context, url string, want answers) (statsView, error) {
	var st statsView
	var top []hotpaths.PathJSON
	if err := getJSON(ctx, url+"/topk", &top); err != nil {
		return st, err
	}
	if err := samePaths("/topk", top, want.topk); err != nil {
		return st, err
	}
	if want.all != nil {
		var all []hotpaths.PathJSON
		if err := getJSON(ctx, url+"/paths", &all); err != nil {
			return st, err
		}
		if err := samePaths("/paths", all, want.all); err != nil {
			return st, err
		}
	}
	if err := getJSON(ctx, url+"/stats", &st); err != nil {
		return st, err
	}
	if st != want.stats {
		return st, fmt.Errorf("correctness: /stats %+v, reference %+v", st, want.stats)
	}
	return st, nil
}

func samePaths(what string, got, want []hotpaths.PathJSON) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("correctness: %s has %d paths, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("correctness: %s entry %d is %+v, reference %+v", what, i, got[i], want[i])
		}
	}
	return fmt.Errorf("correctness: %s differs from the reference", what)
}
