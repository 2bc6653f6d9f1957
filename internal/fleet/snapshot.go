package fleet

import (
	"encoding/json"
	"fmt"
	"sort"

	"element/internal/overload"
	"element/internal/units"
)

// SnapshotVersion is the snapshot schema UnmarshalSnapshot accepts.
const SnapshotVersion = 1

// Snapshot is a run's resumable state, for either fleet: the governor
// tier of every flow, dense by flow ID, plus one entry per flow that
// holds tracker state — rebased checkpoints of a Fleet connection's
// sender, receiver and (when present) minimizer, or of a ScaleFleet
// flow's escalated sender tracker. A scale flow's lite state is
// deliberately absent: it is 16 bytes of smoothing that the closed-form
// counters rebuild within a poll or two.
//
// Everything is keyed by flow ID — never by shard index — so a snapshot
// taken at one shard count restores deterministically into any other:
// the resuming fleet re-homes each flow onto whatever shard its ID maps
// to in the new layout. Checkpoints are rebased at capture (see
// core.SenderCheckpoint.Rebase), so restoring them counts a Restores
// anomaly and starts the resumed series at degraded confidence instead
// of pretending continuity across runs.
//
// Tiers is one byte per flow, which encoding/json writes as a base64
// string — 1.3 MB for a million flows; a plain JSON array of numbers
// decodes too.
type Snapshot struct {
	Version int             `json:"version"`
	Seed    int64           `json:"seed"`
	Flows   int             `json:"flows"`
	Shards  int             `json:"shards"` // layout at capture, informational only
	TakenAt units.Time      `json:"taken_at"`
	Tiers   []overload.Tier `json:"tiers,omitempty"`
	Conns   []ConnSnapshot  `json:"conns,omitempty"` // ascending ID
}

// ConnSnapshot is the tracker state of one flow in a Snapshot. A nil
// Snd on a scale flow means the tracker did not serialize: the flow
// resumes escalated with a fresh tracker.
type ConnSnapshot struct {
	ID  int             `json:"id"`
	Snd json.RawMessage `json:"snd,omitempty"`
	Rcv json.RawMessage `json:"rcv,omitempty"`
	Min json.RawMessage `json:"min,omitempty"`
}

// capture starts a snapshot of the run as of its last barrier: the
// header, and a tier vector for the fleet to fill in.
func (p *pipeline) capture(seed int64, flows int) *Snapshot {
	return &Snapshot{
		Version: SnapshotVersion,
		Seed:    seed,
		Flows:   flows,
		Shards:  p.nshards,
		TakenAt: p.now,
		Tiers:   make([]overload.Tier, flows),
	}
}

// Snapshot captures the fleet's resumable state from the monitors' held
// checkpoints — crash-consistent semantics: state produced since a
// monitor's last checkpoint is lost, exactly like a process that died
// before fsync. Every open monitor holds at least its birth checkpoint;
// monitors not yet open contribute only their tier, and resuming them
// starts a fresh series. This is where held state is
// encoded: the trackers' checkpoints rebased, the minimizer's as held.
// Valid during and after Run.
func (f *Fleet) Snapshot() *Snapshot {
	s := f.pipe.capture(f.cfg.Seed, len(f.monitors))
	for _, m := range f.monitors {
		s.Tiers[m.ID] = m.tier
		if m.haveCP {
			cs := ConnSnapshot{ID: m.ID, Snd: encode(m.sndCP.Rebase()), Rcv: encode(m.rcvCP.Rebase())}
			if m.haveMinCP {
				cs.Min = encode(m.minCP)
			}
			s.Conns = append(s.Conns, cs)
		}
	}
	return s
}

// Snapshot captures the scale fleet's resumable state: every flow's
// tier and the escalated flows' rebased tracker checkpoints. Valid
// between barriers during Run, and after it: drain keeps each shard's
// ids, tiers and escalated trackers, which is all this reads.
func (f *ScaleFleet) Snapshot() *Snapshot {
	s := f.pipe.capture(f.cfg.Seed, f.cfg.Flows)
	for _, sh := range f.shards {
		for slot, id := range sh.ids {
			s.Tiers[id] = overload.Tier(sh.tier[slot])
		}
		for slot, fu := range sh.full {
			s.Conns = append(s.Conns, ConnSnapshot{ID: int(sh.ids[slot]), Snd: encode(fu.tr.Checkpoint().Rebase())})
		}
	}
	// Shards and their escalated maps iterate in no fixed order; sorting
	// makes the encoding deterministic.
	sort.Slice(s.Conns, func(i, j int) bool { return s.Conns[i].ID < s.Conns[j].ID })
	return s
}

// encode marshals one checkpoint for a snapshot; nil if it does not
// encode.
func encode(cp interface{ Marshal() ([]byte, error) }) json.RawMessage {
	b, err := cp.Marshal()
	if err != nil {
		return nil
	}
	return b
}

// Marshal encodes the snapshot as JSON.
func (s *Snapshot) Marshal() ([]byte, error) { return json.Marshal(s) }

// UnmarshalSnapshot decodes a snapshot produced by Marshal, rejecting
// other schema versions and sizes that no capture could have produced.
// The resume paths tolerate everything else: out-of-range IDs and
// duplicate entries are dropped, invalid tiers clamped, unparseable
// checkpoints replaced by fresh trackers — never trusted.
func UnmarshalSnapshot(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("fleet: decoding snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("fleet: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	if s.Flows < 0 {
		return nil, fmt.Errorf("fleet: snapshot with negative flow count %d", s.Flows)
	}
	if len(s.Tiers) > s.Flows {
		return nil, fmt.Errorf("fleet: snapshot tiers length %d exceeds flow count %d", len(s.Tiers), s.Flows)
	}
	return &s, nil
}

// tiers adapts the snapshot's tier vector to the resuming fleet's flow
// count for the governor's resume constructor. Flows the snapshot does
// not cover resume at full fidelity; out-of-range tiers are clamped by
// overload.NewWithTiers, so a corrupted snapshot still lands every flow
// in a valid ladder tier.
func (s *Snapshot) tiers(flows int) []overload.Tier {
	out := make([]overload.Tier, flows)
	copy(out, s.Tiers)
	return out
}
