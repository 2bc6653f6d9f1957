package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/core"
	"element/internal/fleet"
	"element/internal/netem"
	"element/internal/overload"
	"element/internal/pkt"
	"element/internal/reqtrace"
	"element/internal/sim"
	"element/internal/sockbuf"
	"element/internal/stack"
	"element/internal/tcp"
	"element/internal/tcpinfo"
	"element/internal/telemetry"
	"element/internal/telemetry/stream"
	"element/internal/trace"
	"element/internal/units"
	"element/internal/waterfall"
)

// This file holds one driver per layer. A driver calls the layer's
// public functions in isolation, in batches; every batch is one span.
// Where a driver cannot avoid running the engine (a TCP endpoint pair
// needs one for its clock, pipes and timers), it counts the events and
// the recorder lays them under the batch as a child span priced at the
// engine's own measured cost, so the batch's self time is the layer's
// alone. The figures are what an operation costs hot and alone — a
// reference for a change to one layer; the cost waterfall is measured
// on the real run instead (profile.go).

// opCost is a layer operation's measured self cost.
type opCost struct {
	ns     float64 // median over batches of self time / operations
	allocs float64 // mallocs per operation over all batches
}

// inner is the engine's work inside a batch: events executed, with
// about simPending events queued while they ran (which sets what a heap
// operation costs).
type inner struct {
	simEvents  int64
	simPending int
}

// layerBench runs drivers and records their spans.
type layerBench struct {
	rec  *spanRecorder
	root int
	// quick shrinks every batch 20x and runs 2 batches (smoke tests).
	quick bool
	// eventNs prices inner engine work, by pending-queue size.
	eventNs map[int]float64
}

const driverBatches = 5

// measure runs fn(n) — n operations of one layer — as one unrecorded
// warm-up batch and then driverBatches recorded ones.
func (lb *layerBench) measure(name string, n int, fn func(n int) inner) opCost {
	batches := driverBatches
	if lb.quick {
		n, batches = n/20+1, 2
	}
	if in := fn(n); in.simEvents > 0 {
		lb.eventCost(in.simPending) // measured now, outside the batches below
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ids := make([]int, batches)
	for b := range ids {
		id := lb.rec.begin(name, lb.root)
		in := fn(n)
		lb.rec.end(id, int64(n))
		if in.simEvents > 0 {
			lb.rec.child("sim.event", id, int64(float64(in.simEvents)*lb.eventCost(in.simPending)), in.simEvents)
		}
		ids[b] = id
	}
	runtime.ReadMemStats(&m1)
	self := selfTimes(lb.rec.spans)
	per := make([]float64, batches)
	for b, id := range ids {
		per[b] = float64(self[id]) / float64(n)
	}
	return opCost{ns: median(per), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(batches*n)}
}

func noop() {}

// eventCost measures (once per queue size) what one Schedule+Step costs
// a composite driver: its events go in at a fixed offset from a clock
// that only moves forward, so they land at the heap's tail — cheaper
// than the random insertions sim.event_ns times — and at the driver's
// own queue depth, not 1024.
func (lb *layerBench) eventCost(pending int) float64 {
	if ns, ok := lb.eventNs[pending]; ok {
		return ns
	}
	c := lb.measure(fmt.Sprintf("sim.event@%d", pending), 200000, func(n int) inner {
		scheduleAndStep(n, pending, false)
		return inner{}
	})
	lb.eventNs[pending] = c.ns
	return c.ns
}

// scheduleAndStep keeps pending events queued and runs n Schedule+Step
// pairs, at random offsets (the general case) or a fixed one.
func scheduleAndStep(n, pending int, random bool) {
	eng := sim.New(1)
	rng := eng.Rand()
	delay := func() units.Duration {
		if random {
			return units.Duration(rng.Int63n(int64(units.Millisecond)))
		}
		return units.Millisecond
	}
	for i := 0; i < pending; i++ {
		eng.Schedule(delay(), noop)
	}
	for i := 0; i < n; i++ {
		eng.Schedule(delay(), noop)
		eng.Step()
	}
}

// sink keeps pure-function results alive so the compiler cannot drop
// the calls being timed.
var sink float64

// runLayers measures every layer cost in the catalogue and returns them
// by metric name.
func (lb *layerBench) runLayers() map[string]float64 {
	m := map[string]float64{}

	// sim: Schedule+Step with 1024 events pending, and a Proc.Sleep round
	// trip (one event plus two goroutine hand-offs).
	ev := lb.measure("sim.event", 200000, func(n int) inner {
		scheduleAndStep(n, 1024, true)
		return inner{}
	})
	lb.eventNs = map[int]float64{}
	m["sim.event_ns"], m["sim.event_allocs"] = ev.ns, ev.allocs
	m["sim.switch_ns"] = lb.measure("sim.switch", 50000, func(n int) inner {
		eng := sim.New(1)
		eng.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(units.Microsecond)
			}
		})
		eng.Run()
		return inner{}
	}).ns

	// aqm: Enqueue+Dequeue at a standing depth of 64.
	queue := func(name string, mk func() aqm.Discipline) opCost {
		return lb.measure(name, 200000, func(n int) inner {
			d := mk()
			now := units.Time(0)
			for i := 0; i < 64; i++ {
				d.Enqueue(&pkt.Packet{FlowID: 1, Seq: uint64(i) * 1460, PayloadLen: 1460}, now)
			}
			for i := 0; i < n; i++ {
				now = now.Add(units.Microsecond)
				if p := d.Dequeue(now); p != nil {
					d.Enqueue(p, now)
				}
			}
			return inner{}
		})
	}
	m["aqm.fifo_ns"] = queue("aqm.fifo", func() aqm.Discipline { return aqm.NewFIFO(aqm.Config{}) }).ns
	m["aqm.codel_ns"] = queue("aqm.codel", func() aqm.Discipline { return aqm.NewCoDel(aqm.Config{}) }).ns

	// netem: one packet across a Link — Send, queue, serialization event,
	// delivery event, sink — bursts of 32. The two engine events and the
	// FIFO operation a crossing needs are part of the figure, not
	// children: the link's own bookkeeping is a few ns, its cost IS the
	// events and closures it schedules (what a typed-event or packet-pool
	// change would move), and subtracting ~170 ns of engine time from
	// ~180 ns leaves noise.
	send := lb.measure("netem.send", 100000, func(n int) inner {
		eng := sim.New(1)
		link := netem.NewLink(eng, netem.LinkConfig{Rate: 10 * units.Gbps, Delay: units.Microsecond}, func(*pkt.Packet) {})
		pool := make([]pkt.Packet, 32)
		for sent := 0; sent < n; {
			for i := range pool {
				pool[i] = pkt.Packet{FlowID: 1, Seq: uint64(sent) * 1460, PayloadLen: 1460}
				link.Send(&pool[i])
				sent++
			}
			eng.Run()
		}
		return inner{}
	})
	m["netem.send_ns"], m["netem.send_allocs"] = send.ns, send.allocs

	// tcp: an Endpoint pair over fixed-delay pipes, per data segment;
	// engine events are children. The clean transfer is cubic with a
	// 256 KiB window (a bulk_clean flow's share of BDP plus queue); the
	// lossy one is BBR — which keeps its window through loss, the case
	// that makes recovery expensive — with 1 MiB in flight and every
	// 50th first transmission dropped.
	seg := lb.measure("tcp.seg", 40000, func(n int) inner {
		return tcpTransfer(n, cc.NewCubic(tcp.DefaultMSS), 256<<10, 0)
	})
	m["tcp.seg_ns"], m["tcp.seg_allocs"] = seg.ns, seg.allocs
	m["tcp.seg_lossy_ns"] = lb.measure("tcp.seg_lossy", 20000, func(n int) inner {
		return tcpTransfer(n, cc.NewBBR(tcp.DefaultMSS), 1<<20, lossyDriverDropEvery)
	}).ns

	// cc: one OnAck, with a loss every 1000 ACKs so the window stays finite.
	ack := func(name string, alg cc.Algorithm) float64 {
		return lb.measure(name, 200000, func(n int) inner {
			now := units.Time(0)
			for i := 0; i < n; i++ {
				now = now.Add(100 * units.Microsecond)
				alg.OnAck(now, 1460, 20*units.Millisecond, 64*1460, false)
				if i%1000 == 999 {
					alg.OnLoss(now)
				}
			}
			sink += float64(alg.CwndBytes())
			return inner{}
		}).ns
	}
	m["cc.cubic_ack_ns"] = ack("cc.cubic_ack", cc.NewCubic(tcp.DefaultMSS))
	m["cc.bbr_ack_ns"] = ack("cc.bbr_ack", cc.NewBBR(tcp.DefaultMSS))

	// sockbuf: Write + Ack + Tune, the per-segment cycle of a bulk sender.
	m["sockbuf.cycle_ns"] = lb.measure("sockbuf.cycle", 500000, func(n int) inner {
		b := sockbuf.NewSendBuffer(0, 0)
		var acked uint64
		for i := 0; i < n; i++ {
			acked += uint64(b.Write(1460))
			b.Ack(acked)
			b.Tune(64 * 1460)
		}
		sink += float64(b.Cap())
		return inner{}
	}).ns

	// stack: one getsockopt(TCP_INFO) on an established socket.
	m["stack.info_ns"] = lb.measure("stack.info", 200000, func(n int) inner {
		eng := sim.New(1)
		path := netem.NewPath(eng, netem.PathConfig{
			Forward: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: units.Millisecond},
			Reverse: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: units.Millisecond},
		})
		conn := stack.Dial(stack.NewNet(eng, path), stack.ConnConfig{})
		for i := 0; i < n; i++ {
			sink += float64(conn.Sender.GetsockoptTCPInfo().SndCwnd)
		}
		eng.Shutdown()
		return inner{}
	}).ns

	lb.coreLayers(m)
	lb.attributionLayers(m)
	lb.telemetryLayers(m)
	lb.overloadLayers(m)
	lb.fleetLayers(m)
	return m
}

// lossyDriverDropEvery is the tcp.seg_lossy driver's loss pattern.
const lossyDriverDropEvery = 50

// tcpTransfer moves n segments from one Endpoint to another across
// 5 ms pipes under a receive window of window bytes. dropEvery > 0
// drops every dropEvery-th first transmission, leaving holes for SACK
// recovery to fill.
func tcpTransfer(n int, alg cc.Algorithm, window, dropEvery int) inner {
	const pipe = 5 * units.Millisecond
	eng := sim.New(1)
	var snd, rcv *tcp.Endpoint
	first := 0
	snd = tcp.New(eng, tcp.Config{
		FlowID: 1, CC: alg,
		Out: func(p *pkt.Packet) {
			if dropEvery > 0 && p.Gen == 0 {
				if first++; first%dropEvery == 0 {
					return
				}
			}
			eng.Schedule(pipe, func() { rcv.Handle(p) })
		},
	})
	rcv = tcp.New(eng, tcp.Config{
		FlowID: 1, RcvBuf: sockbuf.NewReceiveBuffer(window),
		Out:        func(p *pkt.Packet) { eng.Schedule(pipe, func() { snd.Handle(p) }) },
		OnReadable: func() { rcv.Consume(rcv.ReadableBytes()) },
	})
	total := uint64(n) * tcp.DefaultMSS
	snd.SetAvailable(total)
	in := inner{simPending: window / tcp.DefaultMSS}
	for snd.SndUna() < total && eng.Step() {
		in.simEvents++
	}
	snd.Close()
	rcv.Close()
	return in
}

// fixedInfo is a settable TCP_INFO source for the tracker drivers.
type fixedInfo struct{ info tcpinfo.TCPInfo }

func (f *fixedInfo) GetsockoptTCPInfo() tcpinfo.TCPInfo { return f.info }
func (f *fixedInfo) SetSndBuf(int)                      {}

func (lb *layerBench) coreLayers(m map[string]float64) {
	newInfo := func() *fixedInfo {
		return &fixedInfo{info: tcpinfo.TCPInfo{
			BytesAcked: 1 << 20, Unacked: 10, SndMSS: 1460, RcvMSS: 1460, SndCwnd: 100,
			RTT: 50 * units.Millisecond, SndBuf: 256 << 10,
		}}
	}
	detached := core.TrackerOptions{Detached: true}

	// One write record in, one poll that matches it: the steady state of
	// a monitored bulk sender (as BenchmarkTrackerOverhead's hot loop).
	snd := lb.measure("core.snd_poll", 200000, func(n int) inner {
		eng, src := sim.New(1), newInfo()
		tr := core.NewSenderTrackerOpts(eng, src, detached)
		cum := src.info.BytesAcked
		for i := 0; i < n; i++ {
			eng.RunFor(core.DefaultInterval)
			cum += 1460
			tr.OnWrite(cum)
			src.info.BytesAcked = cum
			tr.PollOnce()
		}
		return inner{}
	})
	m["core.snd_poll_ns"], m["core.snd_poll_allocs"] = snd.ns, snd.allocs

	m["core.rcv_poll_ns"] = lb.measure("core.rcv_poll", 200000, func(n int) inner {
		eng, src := sim.New(1), newInfo()
		tr := core.NewReceiverTrackerOpts(eng, src, detached)
		var cum uint64
		for i := 0; i < n; i++ {
			eng.RunFor(core.DefaultInterval)
			src.info.SegsIn++
			tr.PollOnce()
			cum += 1460
			tr.OnRead(cum, 1460, true)
		}
		return inner{}
	}).ns

	m["core.lite_poll_ns"] = lb.measure("core.lite_poll", 2000000, func(n int) inner {
		var enq, drained uint64
		var rate float64
		for i := 0; i < n; i++ {
			prev := drained
			enq += 1500
			drained += 1460
			var d units.Duration
			d, rate, _ = core.LitePoll(enq, drained, prev, rate, 100*units.Millisecond)
			sink += float64(d)
		}
		return inner{}
	}).ns

	// Algorithm 3's checking pass, fed one fresh measurement per step.
	m["core.min_step_ns"] = lb.measure("core.min_step", 100000, func(n int) inner {
		eng, src := sim.New(1), newInfo()
		tr := core.NewSenderTrackerOpts(eng, src, detached)
		min := core.NewMinimizerDetached(eng, src, tr, core.MinimizerConfig{})
		cum := src.info.BytesAcked
		for i := 0; i < n; i++ {
			eng.RunFor(core.DefaultInterval)
			cum += 1460
			tr.OnWrite(cum)
			src.info.BytesAcked = cum
			tr.PollOnce()
			min.CheckOnce()
		}
		return inner{}
	}).ns

	// One monitor's periodic checkpoint: both trackers captured and
	// marshalled, 64 records pending on each.
	eng, src := sim.New(1), newInfo()
	st := core.NewSenderTrackerOpts(eng, src, detached)
	rt := core.NewReceiverTrackerOpts(eng, src, detached)
	for i := 0; i < 64; i++ {
		eng.RunFor(core.DefaultInterval)
		st.OnWrite(src.info.BytesAcked + uint64(i+1)*1460)
		src.info.SegsIn++
		rt.PollOnce()
	}
	ckptBytes := 0
	m["core.ckpt_ns"] = lb.measure("core.ckpt", 500, func(n int) inner {
		for i := 0; i < n; i++ {
			a, errA := st.Checkpoint().Marshal()
			b, errB := rt.Checkpoint().Marshal()
			if errA != nil || errB != nil {
				panic("benchmark: checkpoint does not marshal")
			}
			ckptBytes = len(a) + len(b)
		}
		return inner{}
	}).ns
	m["core.ckpt_bytes"] = float64(ckptBytes)
}

// attributionLayers covers the ground-truth collector, the waterfall
// recorder and the request tracer, each driven through the hooks the
// stack would call for one in-order segment.
func (lb *layerBench) attributionLayers(m map[string]float64) {
	// trace: the four decomposition points of one segment; per hook call.
	const hooksPerSeg = 4
	m["trace.hook_ns"] = lb.measure("trace.hook", 200000, func(n int) inner {
		eng := sim.New(1)
		col := trace.New(eng)
		sh, rh := col.SenderHooks(), col.ReceiverHooks()
		var seq uint64
		for i := 0; i < n; i += hooksPerSeg {
			eng.RunFor(100 * units.Microsecond)
			end := seq + 1460
			sh.AppWrite(end, 1460)
			sh.TCPTransmit(seq, 1460, false)
			rh.TCPReceive(seq, 1460)
			rh.AppRead(end, 1460)
			seq = end
		}
		return inner{}
	}).ns

	// waterfall: write -> transmit -> packet -> receive -> in-order ->
	// read finalizes one byte range.
	rng := lb.measure("waterfall.range", 100000, func(n int) inner {
		now := units.Time(0)
		wf := waterfall.New()
		wf.SetClock(func() units.Time { return now })
		rec := wf.NewFlow()
		wf.Bind(1, rec)
		sh, rh := rec.SenderHooks(), rec.ReceiverHooks()
		var seq uint64
		for i := 0; i < n; i++ {
			end := seq + 1460
			now = now.Add(100 * units.Microsecond)
			sh.AppWrite(end, 1460)
			sh.TCPTransmit(seq, 1460, false)
			now = now.Add(units.Millisecond)
			rh.PacketRecv(&pkt.Packet{FlowID: 1, Seq: seq, PayloadLen: 1460})
			rh.TCPReceive(seq, 1460)
			rh.TCPInOrder(end)
			rh.AppRead(end, 1460)
			seq = end
		}
		return inner{}
	})
	m["waterfall.range_ns"], m["waterfall.range_allocs"] = rng.ns, rng.allocs

	// reqtrace: a whole single-leg request cycle — Begin, leg declaration,
	// range finalization, completion (as BenchmarkReqtraceSpan).
	m["reqtrace.span_ns"] = lb.measure("reqtrace.span", 200000, func(n int) inner {
		now := units.Time(0)
		tr := reqtrace.New()
		tr.MaxRecords = 1 << 12
		tr.SetClock(func() units.Time { return now })
		f := tr.Flow(0, nil)
		var next uint64
		for i := 0; i < n; i++ {
			now = now.Add(1000)
			r := tr.Begin(uint64(i), 1, nil)
			start := next
			next += 1024
			f.Send(r, start, next)
			var b waterfall.Bounds
			for j := range b {
				b[j] = now.Add(units.Duration(100 * (j + 1)))
			}
			f.RecordRange(start, next, 0, b)
		}
		return inner{}
	}).ns

	// Report + CrossCheck over 32768 retained requests of 8 legs each,
	// about what fanout_rpc completes.
	now := units.Time(0)
	tr := reqtrace.New()
	tr.SetClock(func() units.Time { return now })
	flows := make([]*reqtrace.Flow, fanDegree)
	for i := range flows {
		flows[i] = tr.Flow(i, nil)
	}
	for i := 0; i < 32768; i++ {
		now = now.Add(units.Millisecond)
		r := tr.Begin(uint64(i), fanDegree, nil)
		start := uint64(i) * 1024
		for leg, f := range flows {
			f.Send(r, start, start+1024)
			var b waterfall.Bounds
			for j := range b {
				b[j] = now.Add(units.Duration((i%97 + leg + 1) * 1000 * (j + 1)))
			}
			f.RecordRange(start, start+1024, 0, b)
		}
	}
	m["reqtrace.report_s"] = lb.measure("reqtrace.report", 3, func(n int) inner {
		for i := 0; i < n; i++ {
			if err := tr.Report().CrossCheck(); err != nil {
				panic("benchmark: reqtrace cross-check: " + err.Error())
			}
		}
		return inner{}
	}).ns / 1e9
}

func (lb *layerBench) telemetryLayers(m map[string]float64) {
	m["telemetry.counter_ns"] = lb.measure("telemetry.counter", 2000000, func(n int) inner {
		c := telemetry.New().Scope("bench").Counter("ops")
		for i := 0; i < n; i++ {
			c.Inc()
		}
		sink += c.Value()
		return inner{}
	}).ns
	m["telemetry.event_ns"] = lb.measure("telemetry.event", 500000, func(n int) inner {
		sc := telemetry.New().Scope("bench")
		for i := 0; i < n; i++ {
			sc.Event(telemetry.SevInfo, "op", telemetry.F("seq", float64(i)), telemetry.F("bytes", 1460))
		}
		return inner{}
	}).ns
	// Per exported event, JSONL, from a full ring.
	full := telemetry.New()
	sc := full.Scope("bench")
	for i := 0; i < telemetry.DefaultRingCap; i++ {
		sc.Event(telemetry.SevInfo, "op", telemetry.F("seq", float64(i)))
	}
	m["telemetry.export_ns"] = lb.measure("telemetry.export", telemetry.DefaultRingCap, func(n int) inner {
		if err := full.Export(io.Discard, telemetry.FormatJSONL); err != nil {
			panic("benchmark: telemetry export: " + err.Error())
		}
		return inner{}
	}).ns

	const series = 8
	names := make([]string, series)
	for i := range names {
		names[i] = "series_" + string(rune('a'+i))
	}
	width := 250 * units.Millisecond
	newStream := func() (*stream.Stream, []*stream.Series) {
		st := stream.New(stream.Config{Width: width})
		ss := make([]*stream.Series, series)
		for i, name := range names {
			ss[i] = st.Series(name)
		}
		return st, ss
	}

	m["stream.observe_ns"] = lb.measure("stream.observe", 2000000, func(n int) inner {
		st, ss := newStream()
		at := units.Time(0)
		for i := 0; i < n; i++ {
			at = at.Add(units.Microsecond)
			ss[i%series].Observe(at, float64(i%1000)*1e-4)
			if i%4096 == 0 {
				st.AdvanceTo(at)
				st.Drain(func(*stream.Window) {})
			}
		}
		return inner{}
	}).ns

	// One populated 8-series window folded into another (a barrier's
	// per-shard merge), then sealed, then exported.
	populated := func() *stream.Window {
		w := &stream.Window{Index: 1, End: units.Time(width), Sketches: make([]stream.Sketch, series)}
		for i := range w.Sketches {
			for j := 0; j < 1000; j++ {
				w.Sketches[i].Observe(float64(i+j) * 1e-4)
				w.Samples++
			}
		}
		return w
	}
	src := populated()
	m["stream.merge_ns"] = lb.measure("stream.merge", 20000, func(n int) inner {
		dst := &stream.Window{Sketches: make([]stream.Sketch, series)}
		for i := 0; i < n; i++ {
			dst.Merge(src)
		}
		return inner{}
	}).ns
	m["stream.seal_ns"] = lb.measure("stream.seal", 50000, func(n int) inner {
		st, ss := newStream()
		for i := 0; i < n; i++ {
			at := units.Time(int64(i) * int64(width))
			for j, se := range ss {
				se.Observe(at, float64(j+1)*1e-3)
			}
			st.AdvanceTo(at.Add(2 * width))
			st.Drain(func(*stream.Window) {})
		}
		return inner{}
	}).ns
	m["stream.export_ns"] = lb.measure("stream.export", 2000, func(n int) inner {
		ex := stream.NewBatchExporter(io.Discard, 0)
		for i := 0; i < n; i++ {
			if err := ex.ExportWindow(names, src); err != nil {
				panic("benchmark: stream export: " + err.Error())
			}
		}
		return inner{}
	}).ns
}

func (lb *layerBench) overloadLayers(m map[string]float64) {
	// One governor round over 1024 flows with the pressure cycling across
	// the deadband (as BenchmarkGovernorTick), per flow.
	const flows = 1024
	m["overload.tick_ns_per_flow"] = lb.measure("overload.tick", 2000, func(n int) inner {
		g := overload.New(overload.Config{Budgets: overload.Budgets{RetainedSamples: 1 << 20}, HoldTicks: 8, Seed: 1}, flows)
		over, under := overload.Usage{RetainedSamples: 3 << 20}, overload.Usage{RetainedSamples: 1 << 10}
		for i := 0; i < n; i++ {
			if i&0x1f < 16 {
				g.Tick(over)
			} else {
				g.Tick(under)
			}
		}
		return inner{}
	}).ns / flows

	// One window through the export queue: deep copy in, delivered out.
	m["overload.queue_ns"] = lb.measure("overload.queue", 100000, func(n int) inner {
		q := overload.NewQueue(overload.QueueConfig{Capacity: 64}, stream.SinkFunc(func([]string, *stream.Window) error { return nil }))
		names := []string{"snd_delay", "rcv_delay"}
		w := &stream.Window{Index: 1, Samples: 100, Sketches: make([]stream.Sketch, 2)}
		w.Sketches[0].Observe(0.01)
		w.Sketches[1].Observe(0.02)
		for i := 0; i < n; i++ {
			w.Index = int64(i)
			if err := q.ExportWindow(names, w); err != nil {
				panic("benchmark: export queue: " + err.Error())
			}
			q.Advance(units.Time(i) * units.Time(units.Millisecond))
		}
		return inner{}
	}).ns
}

// fleetLayers times what only a fleet does, on small reference fleets
// that are the same in every workload's process: the lite plane's cost
// per poll seen from outside (wheel + SoA columns + sketch merge; the
// wheel is unexported), and snapshot/resume of a churning fleet.
func (lb *layerBench) fleetLayers(m map[string]float64) {
	const runs = 3
	scale := 1.0
	if lb.quick {
		scale = quickScale
	}
	timed := func(name string, fn func()) float64 {
		id := lb.rec.begin(name, lb.root)
		t0 := time.Now()
		fn()
		d := time.Since(t0).Seconds()
		lb.rec.end(id, 1)
		return d
	}

	perPoll := make([]float64, runs)
	for i := range perPoll {
		f := fleet.NewScale(fleet.ScaleConfig{
			Seed: 1, Flows: int(20000*scale) + 1, Duration: 2 * units.Second,
			Interval: scaleInterval, Shards: 1, EscalateAbove: -1,
		})
		var res *fleet.ScaleResult
		d := timed("fleet.poll", func() { res = f.Run() })
		perPoll[i] = d * 1e9 / float64(res.Polls)
	}
	m["fleet.poll_ns"] = median(perPoll)

	o := buildOpts{seed: 1, scale: scale / 4, shards: 1}
	snapS, resumeS := make([]float64, runs), make([]float64, runs)
	for i := range snapS {
		cfg := churnConfig(o, newExportTally(), waterfall.New())
		cfg.Connections = 64
		f := fleet.New(cfg)
		f.Run()
		var snap *fleet.Snapshot
		var raw []byte
		snapS[i] = timed("fleet.snapshot", func() {
			snap = f.Snapshot()
			var err error
			if raw, err = snap.Marshal(); err != nil {
				panic("benchmark: snapshot does not marshal: " + err.Error())
			}
		})
		m["fleet.snapshot_bytes"] = float64(len(raw))
		resume := churnConfig(o, newExportTally(), waterfall.New())
		resume.Connections, resume.Resume = 64, snap
		resumeS[i] = timed("fleet.resume", func() { fleet.New(resume) })
	}
	m["fleet.snapshot_s"], m["fleet.resume_s"] = median(snapS), median(resumeS)
}
