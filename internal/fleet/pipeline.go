package fleet

import (
	"context"
	"runtime"
	"sync"

	"element/internal/overload"
	"element/internal/telemetry/stream"
	"element/internal/units"
)

// pipeline is the barrier protocol Fleet and ScaleFleet share. Virtual
// time advances in slices: every shard runs to the slice barrier in
// parallel, then the coordinator — single-threaded, so everything it
// decides is shard-count invariant — seals the shards' expired stream
// windows, merges them index-aligned, exports each merged window, lets
// the fleet do its own barrier work, and ticks the overload governor.
//
// A fleet supplies only what differs between the two, as hooks bound
// once at construction so a steady-state barrier allocates nothing.
type pipeline struct {
	duration units.Duration
	slice    units.Duration // barrier interval: a function of the config, never of the shard count
	nshards  int
	now      units.Time // the last barrier reached

	// advance runs one shard up to the barrier. Everything a shard
	// touches while its clock moves is shard-local, so the calls for
	// different shards run concurrently.
	advance func(shard int, to units.Time)
	// barrier is the fleet's own coordinator work, after the sealed
	// windows were exported and before the governor meters.
	barrier func(now units.Time)

	// One stream per shard (none = streaming off), all sealing to the
	// same horizon so they agree on the sealed index sequence.
	streams []*stream.Stream
	names   []string
	merged  stream.Window  // reused per-index merge scratch
	total   *stream.Window // when set, accumulates every merged window of the run
	sink    stream.Sink    // nil = windows are counted and discarded
	windows uint64
	sinkErr error // first sink error

	// gov (nil = off) ticks at every barrier on the usage the fleet
	// meters; apply lands each ladder transition on its flow.
	gov   *overload.Governor
	usage func(now units.Time) overload.Usage
	apply func(tr overload.Transition, now units.Time)
}

// shardCount resolves a requested worker count against the population
// it is split over: 0 means one per core, and no shard is ever empty.
func shardCount(requested, population int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if requested > population {
		requested = population
	}
	return requested
}

// barrierSlice is the barrier interval: 1/64 of the run, never under
// one poll interval.
func barrierSlice(duration, interval units.Duration) units.Duration {
	if s := duration / 64; s > interval {
		return s
	}
	return interval
}

// shardStreamConfig derives the per-shard stream configuration. Lag is
// the barrier slice: shards observe up to a slice past the last
// AdvanceTo, and sizing the open ring for it means no shard ever
// force-seals — the sealed index sequence is a pure function of barrier
// times, which is what makes stream exports byte-identical across shard
// counts. Retain is one barrier's worth of sealed windows plus slack, so
// the per-barrier drain never drops.
func shardStreamConfig(width, watermark, slice units.Duration) stream.Config {
	sc := stream.Config{Width: width, Watermark: watermark, Lag: slice}
	if sc.Width <= 0 {
		sc.Width = stream.DefaultWidth
	}
	sc.Retain = max(int(slice/sc.Width)+2, stream.DefaultRetain)
	return sc
}

// addStream hands the pipeline one shard's stream, after every series
// has been registered on it (in the same order on all shards).
func (p *pipeline) addStream(s *stream.Stream) {
	if p.streams == nil {
		p.names = s.Names()
	}
	p.streams = append(p.streams, s)
}

// newGovernor builds the overload governor over flows flows (nil config
// = no governor). The ladder's jitter seed defaults to the run seed; a
// resumed run starts from the snapshot's tiers.
func newGovernor(oc *overload.Config, seed int64, flows int, resume *Snapshot) *overload.Governor {
	if oc == nil {
		return nil
	}
	c := *oc
	if c.Seed == 0 {
		c.Seed = seed
	}
	if resume != nil {
		return overload.NewWithTiers(c, resume.tiers(flows))
	}
	return overload.New(c, flows)
}

// run steps barrier by barrier to the configured duration, or until ctx
// is canceled. Cancellation is checked at barriers, so an interrupted
// run stops on one and the fleet can still drain.
func (p *pipeline) run(ctx context.Context) {
	for end := units.Time(p.duration); p.now < end && ctx.Err() == nil; {
		next := p.now.Add(p.slice)
		if next > end {
			next = end
		}
		p.step(next)
	}
}

// eachShard calls fn(i, to) for every shard i — inline for a single
// shard, otherwise one goroutine a shard — and returns once every call
// has. fn touches only shard i's state, so the calls run concurrently.
func (p *pipeline) eachShard(fn func(shard int, to units.Time), to units.Time) {
	if p.nshards == 1 {
		fn(0, to)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < p.nshards; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, to)
		}()
	}
	wg.Wait()
}

// step is one barrier: advance every shard to next, joining before
// anything else runs, then the coordinator phases.
func (p *pipeline) step(next units.Time) {
	p.eachShard(p.advance, next)
	p.now = next
	for _, s := range p.streams {
		s.AdvanceTo(next)
	}
	p.exportSealed()
	p.barrier(next)
	if p.gov != nil {
		for _, tr := range p.gov.Tick(p.usage(next)) {
			p.apply(tr, next)
		}
	}
}

// exportSealed folds the shards' sealed windows into the reusable merge
// window, index by index, and hands each to the sink. Idle shards seal
// empty windows, so every shard holds the same index at its head.
func (p *pipeline) exportSealed() {
	for len(p.streams) > 0 && p.streams[0].NextSealed() != nil {
		p.merged.Reset()
		for _, s := range p.streams {
			p.merged.Merge(s.NextSealed())
			s.ReleaseSealed()
		}
		p.windows++
		if p.total != nil {
			p.total.Merge(&p.merged)
		}
		if p.sink != nil {
			if err := p.sink.ExportWindow(p.names, &p.merged); err != nil && p.sinkErr == nil {
				p.sinkErr = err
			}
		}
	}
}

// finish is the final flush: seal everything through the window
// containing the last barrier reached — the run end, unless the run was
// interrupted — on every shard, then merge-export the tail. Sealing
// beyond what ran would only push empty windows through the bounded
// sealed queue, evicting real ones.
func (p *pipeline) finish() {
	for _, s := range p.streams {
		s.SealThrough(int64(p.now) / int64(s.Width()))
	}
	p.exportSealed()
}

// release drops what only a running pipeline reads, once its fleet has
// drained: the shards' streams, the sink, the merge scratch and the
// governor. The clock, the series names and the export counters stay.
func (p *pipeline) release() {
	p.streams, p.sink, p.total, p.gov = nil, nil, nil, nil
	p.merged = stream.Window{}
}
