package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"hotpaths"
)

func TestEncodeStepMatchesEncodingJSON(t *testing.T) {
	for _, kind := range []string{"athens", "convoy"} {
		src, err := newSource(kind, 3)
		if err != nil {
			t.Fatal(err)
		}
		for ts := int64(1); ts <= 5; ts++ {
			obs := src.next()
			for _, tick := range []int64{0, ts} {
				want, err := json.Marshal(observeBody{Observations: obs, Tick: tick})
				if err != nil {
					t.Fatal(err)
				}
				s := encodeStep(ts, obs, tick)
				if !bytes.Equal(s.body, want) {
					t.Fatalf("%s t=%d tick=%d: hand-rolled body differs from encoding/json", kind, ts, tick)
				}
				if s.n != len(obs) {
					t.Fatalf("step n=%d, want %d", s.n, len(obs))
				}
			}
		}
	}
}

func TestSourcesDeterministic(t *testing.T) {
	for _, kind := range []string{"athens", "convoy"} {
		a, _, err := pregen(kind, 7, 20)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _ := pregen(kind, 7, 20)
		c, _, _ := pregen(kind, 8, 20)
		same, differs := true, false
		for i := range a {
			same = same && bytes.Equal(a[i], b[i])
			differs = differs || !bytes.Equal(a[i], c[i])
		}
		if !same {
			t.Errorf("%s: the same seed produced different input", kind)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 produced the same input", kind)
		}
	}
}

func TestFeederMatchesReplay(t *testing.T) {
	f, err := startFeeder("athens", 5, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	err = replay("athens", 5, 8, func(ts int64, obs []hotpaths.ObservationJSON) error {
		if ts < 4 {
			return nil
		}
		s := f.next()
		if want := encodeStep(ts, obs, ts); s.t != ts || !bytes.Equal(s.body, want.body) {
			t.Errorf("feeder step %d differs from the replayed input at %d", s.t, ts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConvoyStaysInBounds(t *testing.T) {
	c := newConvoy(1, 500)
	for ts := 0; ts < 3000; ts++ {
		for _, o := range c.next() {
			if o.X < 0 || o.Y < 0 || o.X > 16000 || o.Y > 16000 {
				t.Fatalf("t=%d object %d at (%v,%v) outside the bounds", o.T, o.Object, o.X, o.Y)
			}
		}
	}
}
