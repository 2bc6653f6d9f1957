package aqm

import (
	"fmt"
	"math/rand"
)

// Kind names a queueing discipline for configuration and reporting.
type Kind string

// Supported disciplines.
const (
	KindFIFO    Kind = "pfifo_fast"
	KindCoDel   Kind = "codel"
	KindFQCoDel Kind = "fq_codel"
	KindPIE     Kind = "pie"
	// KindSFQ is plain stochastic fair queueing (Figure 16's per-flow
	// buffers); Figure 3 does not report it.
	KindSFQ Kind = "sfq"
)

// AllKinds lists the disciplines in the order the paper's Figure 3 reports
// them.
var AllKinds = []Kind{KindFIFO, KindCoDel, KindFQCoDel, KindPIE}

// New constructs a discipline by kind. rng is used by randomized disciplines
// (PIE); deterministic disciplines ignore it.
func New(kind Kind, cfg Config, rng *rand.Rand) (Discipline, error) {
	switch kind {
	case KindFIFO, "fifo", "":
		return NewFIFO(cfg), nil
	case KindCoDel:
		return NewCoDel(cfg), nil
	case KindFQCoDel:
		return NewFQCoDel(cfg), nil
	case KindPIE:
		return NewPIE(cfg, rng), nil
	case KindSFQ:
		return newSFQ(cfg), nil
	default:
		return nil, fmt.Errorf("aqm: unknown discipline %q (have: %s, %s, %s, %s, %s)",
			kind, KindFIFO, KindCoDel, KindFQCoDel, KindPIE, KindSFQ)
	}
}

// MustNew is New for static configurations; it panics on unknown kinds.
func MustNew(kind Kind, cfg Config, rng *rand.Rand) Discipline {
	d, err := New(kind, cfg, rng)
	if err != nil {
		panic(err)
	}
	return d
}
