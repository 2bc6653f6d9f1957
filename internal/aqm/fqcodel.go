package aqm

import (
	"element/internal/pkt"
	"element/internal/units"
)

// FQ-CoDel defaults from RFC 8290.
const (
	// FQCoDelFlows is the number of hash buckets (sub-queues).
	FQCoDelFlows = 1024
	// FQCoDelQuantum is the DRR quantum in bytes (one MTU-sized packet).
	FQCoDelQuantum = 1514
)

// fqFlow is one FQ-CoDel sub-queue.
type fqFlow struct {
	q       fifoRing
	st      codelState
	deficit int
	// active tracks membership in newFlows/oldFlows.
	active bool
}

// FQCoDel is the FlowQueue-CoDel packet scheduler of RFC 8290: packets are
// hashed into per-flow queues served by deficit round robin, with the CoDel
// law applied independently to each queue. New flows get priority, which is
// what gives sparse (low-rate) flows their low latency.
type FQCoDel struct {
	cfg      Config
	flows    []fqFlow
	newFlows []int // indexes into flows
	oldFlows []int
	bytes    int
	count    int
	stats    Stats
	quantum  int
	noCodel  bool // SFQ mode: fair queueing without the AQM law
}

// newSFQ returns a plain stochastic-fair-queueing scheduler: FQ-CoDel's
// flow isolation and DRR without the CoDel drop law. It models per-flow
// buffers (as in cellular basestations) where each flow's queueing delay is
// its own doing — the setting the paper's Sprout/Verus comparison assumes.
func newSFQ(cfg Config) *FQCoDel {
	f := NewFQCoDel(cfg)
	f.noCodel = true
	return f
}

// NewFQCoDel returns an FQ-CoDel scheduler with RFC-default parameters.
func NewFQCoDel(cfg Config) *FQCoDel {
	if cfg.LimitPackets == 0 {
		cfg.LimitPackets = 10240 // RFC 8290 default total limit
	}
	f := &FQCoDel{cfg: cfg, quantum: FQCoDelQuantum}
	f.flows = make([]fqFlow, FQCoDelFlows)
	return f
}

// bucket hashes a flow ID to a sub-queue index. Flow IDs in the simulator
// are small dense integers, so a multiplicative hash spreads them well.
func (f *FQCoDel) bucket(flowID int) int {
	h := uint64(flowID) * 0x9e3779b97f4a7c15
	return int(h % uint64(len(f.flows)))
}

// Enqueue implements Discipline.
func (f *FQCoDel) Enqueue(p *pkt.Packet, now units.Time) bool {
	if f.count >= f.cfg.LimitPackets {
		// RFC 8290 §4.2: on overflow, drop from the head of the longest
		// (most-backlogged) queue, so heavy flows bound their own delay
		// and cannot push out light flows' packets.
		f.dropFromLongest()
		if f.count >= f.cfg.LimitPackets {
			f.stats.TailDrops++
			return false
		}
	}
	idx := f.bucket(p.FlowID)
	fl := &f.flows[idx]
	p.EnqueuedAt = now
	fl.q.push(p)
	f.count++
	f.bytes += p.Size()
	f.stats.Enqueued++
	if !fl.active {
		fl.active = true
		fl.deficit = f.quantum
		f.newFlows = append(f.newFlows, idx)
	}
	return true
}

// Dequeue implements Discipline: DRR over new flows first, then old flows,
// with per-flow CoDel.
func (f *FQCoDel) Dequeue(now units.Time) *pkt.Packet {
	for {
		var list *[]int
		if len(f.newFlows) > 0 {
			list = &f.newFlows
		} else if len(f.oldFlows) > 0 {
			list = &f.oldFlows
		} else {
			return nil
		}
		idx := (*list)[0]
		fl := &f.flows[idx]
		if fl.deficit <= 0 {
			fl.deficit += f.quantum
			// Rotate to the back of oldFlows.
			*list = (*list)[1:]
			f.oldFlows = append(f.oldFlows, idx)
			continue
		}
		p := f.codelDequeue(fl, now)
		if p == nil {
			// Queue empty: a new flow becomes an old flow once it empties;
			// an old flow is removed.
			wasNew := list == &f.newFlows
			*list = (*list)[1:]
			if wasNew {
				f.oldFlows = append(f.oldFlows, idx)
			} else {
				fl.active = false
			}
			continue
		}
		fl.deficit -= p.Size()
		f.stats.Dequeued++
		return p
	}
}

// dropFromLongest discards the head packet of the flow with the largest
// byte backlog. It runs inside Enqueue of a different packet: the victim is
// released here, the offered packet carries on.
func (f *FQCoDel) dropFromLongest() {
	longest := -1
	maxBytes := 0
	for i := range f.flows {
		if f.flows[i].q.bytes > maxBytes {
			maxBytes = f.flows[i].q.bytes
			longest = i
		}
	}
	if longest < 0 {
		return
	}
	if p := f.flows[longest].q.pop(); p != nil {
		f.count--
		f.bytes -= p.Size()
		f.stats.AQMDrops++
		dropQueued(p)
	}
}

// codelDequeue applies the per-flow CoDel law to fl.
func (f *FQCoDel) codelDequeue(fl *fqFlow, now units.Time) *pkt.Packet {
	for {
		p := fl.q.pop()
		if p == nil {
			fl.st.dropping = false
			return nil
		}
		f.count--
		f.bytes -= p.Size()
		if f.noCodel {
			return p
		}
		sojourn := now.Sub(p.EnqueuedAt)
		if fl.st.shouldDrop(sojourn, now, fl.q.bytes, FQCoDelQuantum) {
			if !dropOrMark(f.cfg, &f.stats, p) {
				return p
			}
			dropQueued(p)
			continue
		}
		return p
	}
}

// Len implements Discipline.
func (f *FQCoDel) Len() int { return f.count }

// Bytes implements Discipline.
func (f *FQCoDel) Bytes() int { return f.bytes }

// Stats implements Discipline.
func (f *FQCoDel) Stats() Stats { return f.stats }

// Name implements Discipline.
func (f *FQCoDel) Name() string {
	if f.noCodel {
		return "sfq"
	}
	return "fq_codel"
}
