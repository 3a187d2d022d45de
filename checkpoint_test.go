package hotpaths

import "testing"

// FuzzCheckpointDecode locks in the restore path's safety contract: a
// checkpoint body from a peer or a damaged disk must restore into a fresh
// System or be rejected with an error — never panic, then or in the
// epoch that follows. The fuzz bytes are framed with a valid header and
// CRC, so they reach the gob decoder and the engine's RestoreState rather
// than dying at the checksum. testdata/fuzz holds the crashers found so
// far.
func FuzzCheckpointDecode(f *testing.F) {
	cfg := engineTestConfig()
	body := func(sys *System) []byte {
		st, err := sys.eng.DumpState()
		if err != nil {
			f.Fatal(err)
		}
		b, err := encodeCheckpoint(sys.Config(), st)
		if err != nil {
			f.Fatal(err)
		}
		return b[len(checkpointMagic)+8:]
	}
	empty, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body(empty))
	// Mid-epoch, so the seed carries filters, paths, crossings and
	// pending reports.
	busy, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, batch := range IngestWorkload(24, 75, 3) {
		if err := busy.ObserveBatch(batch); err != nil {
			f.Fatal(err)
		}
		if err := busy.Tick(batch[0].T); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(body(busy))
	f.Add([]byte{})

	want := empty.Config()
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decodeCheckpoint(frameCheckpoint(b), want)
		if err != nil {
			return
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sys.eng.RestoreState(st) != nil {
			return
		}
		// A restored state must also survive the next epoch.
		_ = sys.Observe(1, 5, 5, int64(st.Clock)+1)
		_ = sys.Tick(int64(st.Clock) + cfg.Epoch)
		_ = sys.Snapshot().Query(Query{}.Region(Rect{Max: Pt(100, 100)}))
	})
}
