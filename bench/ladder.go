package bench

import (
	"math"
	"net"
	"testing"
	"time"

	"borgmoea/internal/cluster"
	"borgmoea/internal/core"
	"borgmoea/internal/des"
	"borgmoea/internal/master"
	"borgmoea/internal/operators"
	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
	"borgmoea/internal/wire"
)

// The ladder times each layer's public entry points in isolation:
// fixed iteration counts (identical work on every commit), the median
// of ladderBatches batches, ns per operation. *_allocs rungs are
// allocations per operation from testing.AllocsPerRun.
const ladderBatches = 5

var ladderSink float64

// rung times one batch of iters operations.
func rung(iters int, batch func(iters int) time.Duration) float64 {
	xs := make([]float64, ladderBatches)
	for i := range xs {
		xs[i] = float64(batch(iters).Nanoseconds()) / float64(iters)
	}
	return Median(xs)
}

// loop is a batch that calls op iters times.
func loop(op func()) func(int) time.Duration {
	return func(iters int) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		return time.Since(start)
	}
}

// simplexPoint returns a 5-objective point near the unit simplex;
// such points are mutually nondominated, so structures fill up with
// them instead of rejecting them.
func simplexPoint(r *rng.Source) *core.Solution {
	objs := make([]float64, 5)
	sum := 0.0
	for i := range objs {
		objs[i] = -math.Log(1 - r.Float64())
		sum += objs[i]
	}
	for i := range objs {
		objs[i] = objs[i]/sum + 0.01*(r.Float64()-0.5)
	}
	return &core.Solution{Objs: objs}
}

// Ladder runs every rung and returns the per-layer metrics it owns.
// scale divides the iteration counts (1 for a real run).
func Ladder(scale int) (map[string]float64, error) {
	out := map[string]float64{}
	it := func(n int) int { return max(n/scale, 10) }

	// rng
	r := rng.New(1)
	var x uint64
	out["rng.uint64_ns"] = rung(it(5_000_000), loop(func() { x ^= r.Uint64() }))
	ladderSink += float64(x & 1)

	// operators: mean over the six default operators, parents shaped
	// like DTLZ2_5's 14 decision variables.
	prob := problems.NewDTLZ2(5)
	lo, hi := prob.Bounds()
	ops := operators.BorgEnsemble()
	for _, op := range ops {
		parents := make([][]float64, op.Arity())
		for i := range parents {
			parents[i] = make([]float64, len(lo))
			for j := range parents[i] {
				parents[i][j] = r.Range(lo[j], hi[j])
			}
		}
		out["operators.apply_ns"] += rung(it(20_000), loop(func() {
			ladderSink += op.Apply(parents, lo, hi, r)[0][0]
		})) / float64(len(ops))
	}

	// problems
	vars := make([]float64, prob.NumVars())
	for i := range vars {
		vars[i] = r.Float64()
	}
	objs := make([]float64, prob.NumObjs())
	out["problems.dtlz2_5_eval_ns"] = rung(it(500_000), loop(func() { prob.Evaluate(vars, objs) }))

	// core: ε-archive insertion at ~1000 members. Two thirds of the
	// candidates perturb a member (same-box or near-box duels, as
	// operator offspring do), the rest land farther afield.
	const eps = 0.02
	arch := core.NewArchive(core.UniformEpsilons(5, eps), 6)
	for arch.Size() < 1000 {
		arch.Add(simplexPoint(r))
	}
	cands := make([]*core.Solution, 1024)
	for i := range cands {
		if i%3 == 0 {
			cands[i] = simplexPoint(r)
			continue
		}
		parent := arch.Members()[r.Intn(arch.Size())]
		o := make([]float64, 5)
		for j, f := range parent.Objs {
			o[j] = f + eps*0.1*(r.Float64()-0.5)
		}
		cands[i] = &core.Solution{Objs: o}
	}
	i := 0
	out["core.archive_add_ns.n1000"] = rung(it(50_000), loop(func() { arch.Add(cands[i%len(cands)]); i++ }))

	// core: steady-state population replacement at capacity 4000 — a
	// linear dominance scan per offspring.
	pop := core.NewPopulation(4000)
	for pop.Size() < pop.Capacity() {
		pop.Add(simplexPoint(r), r)
	}
	fresh := make([]*core.Solution, 256)
	for i := range fresh {
		fresh[i] = simplexPoint(r)
	}
	out["core.population_add_ns.n4000"] = rung(it(2_000), loop(func() { pop.Add(fresh[i%len(fresh)], r); i++ }))

	// core: one serial Borg step (suggest, evaluate, accept) on
	// DTLZ2_5. Every batch replays the same seeded instance from the
	// same warmed state, so batches do identical work.
	newBorg := func() *core.Borg {
		b := core.MustNew(prob, core.Config{Epsilons: core.UniformEpsilons(5, 0.1), Seed: 1})
		for i := 0; i < it(2_000); i++ {
			b.Step()
		}
		return b
	}
	out["core.step_ns.dtlz2_5"] = rung(it(5_000), func(iters int) time.Duration {
		b := newBorg()
		start := time.Now()
		for i := 0; i < iters; i++ {
			b.Step()
		}
		return time.Since(start)
	})
	out["core.step_allocs.dtlz2_5"] = testing.AllocsPerRun(it(2_000), newBorg().Step)

	// wire codec: the grant and result frames of a DTLZ2_5 evaluation.
	ev := &wire.Evaluate{Lease: 1, SolID: 1, Operator: 2, Vars: vars}
	res := &wire.Result{Lease: 1, SolID: 1, Operator: 2, EvalNanos: 12345, Objs: objs}
	var gbuf, rbuf []byte
	var workerSc, masterSc wire.DecodeScratch
	out["wire.encode_evaluate_ns"] = rung(it(500_000), loop(func() { gbuf = wire.AppendFrame(gbuf[:0], ev) }))
	rbuf = wire.AppendFrame(rbuf[:0], res)
	var decodeErr error
	out["wire.decode_result_ns"] = rung(it(500_000), loop(func() {
		if _, err := wire.DecodeFrameInto(rbuf[4:], &masterSc); err != nil {
			decodeErr = err
		}
	}))
	if decodeErr != nil {
		return nil, decodeErr
	}
	out["wire.frame_bytes.evaluate"] = float64(len(gbuf))
	out["wire.frame_bytes.result"] = float64(len(rbuf))
	// One evaluation's full codec round trip: grant out, grant in,
	// result out, result in — must not allocate.
	out["wire.roundtrip_allocs"] = testing.AllocsPerRun(it(10_000), func() {
		gbuf = wire.AppendFrame(gbuf[:0], ev)
		m, err := wire.DecodeFrameInto(gbuf[4:], &workerSc)
		if err != nil {
			decodeErr = err
			return
		}
		res.Lease = m.(*wire.Evaluate).Lease
		rbuf = wire.AppendFrame(rbuf[:0], res)
		if _, err := wire.DecodeFrameInto(rbuf[4:], &masterSc); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return nil, decodeErr
	}

	rtt, err := connRTT(it(10_000), ev, res)
	if err != nil {
		return nil, err
	}
	out["wire.conn_rtt_us"] = rtt / 1e3

	// master: the state machine alone — one Join, then Result→Grant
	// cycles against an Algorithm that does nothing.
	mc := master.NewCore(master.Config{Budget: math.MaxUint64, Alg: nopAlg{s: &core.Solution{Objs: objs}}})
	lease := mc.Handle(master.Event{Kind: master.EvJoin, Worker: 1})[0].Item.ID
	cycle := func() {
		lease = mc.Handle(master.Event{Kind: master.EvResult, Worker: 1, Item: lease})[0].Item.ID
	}
	out["master.handle_result_ns"] = rung(it(1_000_000), loop(cycle))
	out["master.handle_result_allocs"] = testing.AllocsPerRun(it(10_000), cycle)

	// des: a scheduled callback event, and a process Hold (an event
	// plus two goroutine hand-offs).
	out["des.schedule_ns"] = rung(it(200_000), func(iters int) time.Duration {
		e := des.New()
		start := time.Now()
		for i := 0; i < iters; i++ {
			e.Schedule(des.Time(i)*1e-6, func() {})
		}
		e.Run()
		return time.Since(start)
	})
	holds := func(iters int) time.Duration {
		e := des.New()
		e.Go("p", func(p *des.Process) {
			for i := 0; i < iters; i++ {
				p.Hold(1e-6)
			}
		})
		start := time.Now()
		e.Run()
		return time.Since(start)
	}
	out["des.hold_ns"] = rung(it(100_000), holds)
	const holdsPerRun = 1000
	out["des.hold_allocs"] = testing.AllocsPerRun(it(20), func() { holds(holdsPerRun) }) / holdsPerRun

	// cluster: one message through the virtual machine — Send, the
	// delivery event, and the parked receiver's wake-up.
	out["cluster.send_recv_ns"] = rung(it(50_000), func(iters int) time.Duration {
		e := des.New()
		cl := cluster.New(e, cluster.Config{Nodes: 2, Seed: 1})
		e.Go("ping", func(p *des.Process) {
			for i := 0; i < iters/2; i++ {
				cl.Node(0).Send(1, 0, nil)
				cl.Node(0).Recv(p)
			}
		})
		e.Go("pong", func(p *des.Process) {
			for i := 0; i < iters/2; i++ {
				cl.Node(1).Recv(p)
				cl.Node(1).Send(0, 0, nil)
			}
		})
		start := time.Now()
		e.Run()
		return time.Since(start)
	})
	return out, nil
}

// nopAlg is a master.Algorithm that does no work: it hands the same
// evaluated solution out forever.
type nopAlg struct{ s *core.Solution }

func (a nopAlg) Suggest() *core.Solution                     { return a.s }
func (a nopAlg) Accept(*core.Solution)                       {}
func (a nopAlg) AcceptSuggest(*core.Solution) *core.Solution { return a.s }

// connRTT measures one Send+Recv round trip over a real loopback
// wire.Conn against an echo peer that answers every grant with a
// result, in ns.
func connRTT(iters int, ev *wire.Evaluate, res *wire.Result) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	peerErr := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			peerErr <- err
			return
		}
		conn, _, err := wire.ServerHandshake(nc, wire.Options{ReuseMessages: true}, func(h wire.Hello) (*wire.Welcome, error) {
			return &wire.Welcome{WorkerID: 1}, nil
		})
		if err != nil {
			peerErr <- err
			return
		}
		defer conn.Close()
		for {
			if _, err := conn.Recv(); err != nil {
				peerErr <- nil // the client hung up: done
				return
			}
			if err := conn.Send(res); err != nil {
				peerErr <- err
				return
			}
		}
	}()
	conn, _, err := wire.Dial(ln.Addr().String(), wire.Hello{}, wire.Options{ReuseMessages: true})
	if err != nil {
		return 0, err
	}
	var rtErr error
	ns := rung(iters, loop(func() {
		if rtErr != nil {
			return
		}
		if rtErr = conn.Send(ev); rtErr == nil {
			_, rtErr = conn.Recv()
		}
	}))
	conn.Close()
	if err := <-peerErr; err != nil {
		return 0, err
	}
	return ns, rtErr
}
