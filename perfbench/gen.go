package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"hotpaths"
	"hotpaths/internal/roadnet"
	"hotpaths/internal/trajectory"
	"hotpaths/internal/workload"
)

// pipelineConfig is the paper's Section 6 default configuration, which is
// also hotpathsd's flag default: ε=10, W=100, Λ=10, k=10, bounds
// 0,0,16000,16000 and a 64×64 grid.
var pipelineConfig = hotpaths.Config{
	Eps:      10,
	W:        100,
	Epoch:    10,
	K:        10,
	Bounds:   hotpaths.Rect{Min: hotpaths.Pt(0, 0), Max: hotpaths.Pt(16000, 16000)},
	GridCols: 64,
	GridRows: 64,
}

// sutFlags are the hotpathsd flags that select pipelineConfig.
var sutFlags = []string{
	"-eps", "10", "-w", "100", "-epoch", "10", "-k", "10",
	"-bounds", "0,0,16000,16000", "-grid", "64",
}

// step is one timestamp of generated input: the exact POST /observe
// body carrying the n observations taken at timestamp t.
type step struct {
	t    int64
	n    int
	body []byte
}

// observeBody is the wire shape of a POST /observe request; tick is set
// only where the workload closes the timestamp in the same request.
type observeBody struct {
	Observations []hotpaths.ObservationJSON `json:"observations"`
	Tick         int64                      `json:"tick,omitempty"`
}

// source produces a workload's input one timestamp at a time. The same
// kind and seed always produce the same sequence.
type source interface {
	next() []hotpaths.ObservationJSON
}

// newSource returns the input generator of a workload family: "athens"
// for the paper's road-network traffic model, "convoy" for motorway
// traffic that the filters almost entirely suppress.
func newSource(kind string, seed int64) (source, error) {
	switch kind {
	case "athens":
		return newAthens(seed, 5000)
	case "convoy":
		return newConvoy(seed, 2500), nil
	}
	return nil, fmt.Errorf("unknown input kind %q", kind)
}

// athensMap is the seed of the synthetic road network: one fixed city,
// so a run's seed varies the traffic and not the map.
const athensMap = 1

// athens is the paper's traffic model (Section 6.1): N objects on the
// synthetic greater-Athens network, agility α=0.5, 10 m steps, 1 m
// measurement noise, bursty (traffic-light) movement. The seed moves the
// traffic; the map is the same in every run.
type athens struct {
	sim *workload.Simulator
	t   int64
}

func newAthens(seed int64, n int) (*athens, error) {
	net, err := roadnet.GenerateAthens(athensMap)
	if err != nil {
		return nil, err
	}
	sim, err := workload.New(net, workload.Config{
		N: n, Agility: 0.5, Step: 10, Err: 1, Seed: seed, Model: workload.Bursty,
	})
	if err != nil {
		return nil, err
	}
	return &athens{sim: sim}, nil
}

func (a *athens) next() []hotpaths.ObservationJSON {
	a.t++
	ms := a.sim.Tick(trajectory.Time(a.t))
	out := make([]hotpaths.ObservationJSON, len(ms))
	for i, m := range ms {
		out[i] = hotpaths.ObservationJSON{Object: m.ObjectID, X: m.TP.P.X, Y: m.TP.P.Y, T: a.t}
	}
	return out
}

// convoy is motorway traffic: every object drives at constant speed along
// a straight lane (horizontal or vertical, 15 km long, inside the bounds)
// and turns round at the lane's end. Measurement noise is 1 m, far below
// ε, so the filters report only at the turns: well under 0.1% of
// observations, leaving the coordinator and index almost idle.
type convoy struct {
	rng  *rand.Rand
	objs []convoyObj
	t    int64
}

type convoyObj struct {
	vertical bool
	lane     float64 // the fixed coordinate: lane centre plus a lateral offset
	pos      float64 // position along the lane
	speed    float64 // signed, metres per timestamp
}

const (
	convoyLanes   = 40
	convoyLaneMin = 500.0
	convoyLaneMax = 15500.0
)

func newConvoy(seed int64, n int) *convoy {
	rng := rand.New(rand.NewSource(seed))
	c := &convoy{rng: rng, objs: make([]convoyObj, n)}
	for i := range c.objs {
		lane := rng.Intn(convoyLanes)
		speed := 5 + 4*rng.Float64()
		if rng.Intn(2) == 0 {
			speed = -speed
		}
		c.objs[i] = convoyObj{
			vertical: lane%2 == 1,
			lane:     convoyLaneMin + float64(lane/2)*(convoyLaneMax-convoyLaneMin)/float64(convoyLanes/2) + 3*rng.Float64(),
			pos:      convoyLaneMin + (convoyLaneMax-convoyLaneMin)*rng.Float64(),
			speed:    speed,
		}
	}
	return c
}

func (c *convoy) next() []hotpaths.ObservationJSON {
	c.t++
	out := make([]hotpaths.ObservationJSON, len(c.objs))
	for i := range c.objs {
		o := &c.objs[i]
		o.pos += o.speed
		if o.pos < convoyLaneMin || o.pos > convoyLaneMax {
			o.speed = -o.speed
			o.pos += 2 * o.speed
		}
		x, y := o.pos, o.lane
		if o.vertical {
			x, y = y, x
		}
		out[i] = hotpaths.ObservationJSON{
			Object: i,
			X:      x + 2*c.rng.Float64() - 1,
			Y:      y + 2*c.rng.Float64() - 1,
			T:      c.t,
		}
	}
	return out
}

// encodeStep builds the step for timestamp t. The body is byte-for-byte
// what encoding/json produces for observeBody (a test pins this); the
// hand-rolled encoder keeps the load generator's own CPU use small next
// to the daemon's decode. tick > 0 closes the timestamp in the same
// request.
func encodeStep(t int64, obs []hotpaths.ObservationJSON, tick int64) step {
	b := make([]byte, 0, 64*len(obs)+32)
	b = append(b, `{"observations":[`...)
	for i, o := range obs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"object":`...)
		b = strconv.AppendInt(b, int64(o.Object), 10)
		b = append(b, `,"x":`...)
		b = appendFloat(b, o.X)
		b = append(b, `,"y":`...)
		b = appendFloat(b, o.Y)
		b = append(b, `,"t":`...)
		b = strconv.AppendInt(b, o.T, 10)
		b = append(b, '}')
	}
	b = append(b, ']')
	if tick > 0 {
		b = append(b, `,"tick":`...)
		b = strconv.AppendInt(b, tick, 10)
	}
	b = append(b, '}')
	return step{t: t, n: len(obs), body: b}
}

// appendFloat formats f as encoding/json does for the magnitudes the
// generators produce (1e-6 <= |f| < 1e21, or zero): shortest 'f' form.
func appendFloat(b []byte, f float64) []byte {
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		panic(fmt.Sprintf("appendFloat: %v outside the generators' range", f))
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// feeder generates a workload's input ahead of the writer on its own
// goroutine, so the timed phase never waits on synthesis and only a
// bounded window of bodies is held in memory.
type feeder struct {
	ch   chan step
	stop chan struct{}
	done chan struct{}
}

// feederDepth bounds the generated-but-unsent window: 32 timestamps is
// several hundred milliseconds of the fastest writer, about 6 MB.
const feederDepth = 32

// startFeeder generates the input from timestamp from onwards (earlier
// timestamps are simulated but not encoded).
func startFeeder(kind string, seed int64, inlineTick bool, from int64) (*feeder, error) {
	src, err := newSource(kind, seed)
	if err != nil {
		return nil, err
	}
	f := &feeder{ch: make(chan step, feederDepth), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer close(f.ch)
		for t := int64(1); ; t++ {
			obs := src.next()
			if t < from {
				continue
			}
			tick := int64(0)
			if inlineTick {
				tick = t
			}
			select {
			case f.ch <- encodeStep(t, obs, tick):
			case <-f.stop:
				return
			}
		}
	}()
	return f, nil
}

// primed waits until the generator has filled its window, so set-up
// measured afterwards does not share the CPU with it.
func (f *feeder) primed() {
	for len(f.ch) < cap(f.ch) {
		time.Sleep(time.Millisecond)
	}
}

// next returns the following step.
func (f *feeder) next() step { return <-f.ch }

// close stops the generator goroutine and waits for it.
func (f *feeder) close() {
	close(f.stop)
	<-f.done
}

// replay feeds the first n timestamps of a workload's input to fn, in
// order, regenerating them from the seed.
func replay(kind string, seed int64, n int64, fn func(t int64, obs []hotpaths.ObservationJSON) error) error {
	src, err := newSource(kind, seed)
	if err != nil {
		return err
	}
	for t := int64(1); t <= n; t++ {
		if err := fn(t, src.next()); err != nil {
			return err
		}
	}
	return nil
}
