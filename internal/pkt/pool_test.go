package pkt

import (
	"reflect"
	"testing"
	"unsafe"
)

// fillNonZero sets every field of p, exported or not, to a non-zero value,
// so a reset that forgets a field added later is caught.
func fillNonZero(t *testing.T, p *Packet) {
	t.Helper()
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "pool" || name == "released" {
			continue // the pool's own bookkeeping
		}
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(7)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.Set(reflect.ValueOf(append(p.SackBuf(), Range{1, 2})))
		case reflect.Array:
			f.Index(0).Set(reflect.ValueOf(Range{1, 2}))
		case reflect.Interface:
			f.Set(reflect.ValueOf("payload"))
		default:
			t.Fatalf("field %s: kind %s not handled; teach fillNonZero about it", name, f.Kind())
		}
		if f.IsZero() {
			t.Fatalf("field %s still zero after fill", name)
		}
	}
}

func TestRecycledPacketIsZero(t *testing.T) {
	if poison {
		t.Skip("the pktpoison build never recycles")
	}
	pl := NewPool()
	p := pl.Get()
	fillNonZero(t, p)
	p.Release()
	q := pl.Get()
	if q != p {
		t.Fatal("pool is not LIFO: Get after Release returned another packet")
	}
	v := reflect.ValueOf(q).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "pool" {
			continue
		}
		if !v.Field(i).IsZero() {
			t.Errorf("recycled packet: field %s = %v, want zero", name, v.Field(i))
		}
	}
	if q.pool != pl {
		t.Error("recycled packet lost its pool")
	}
}

func TestReleasedPacketPinsNothing(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	p.Payload = "payload"
	p.Sack = append(p.SackBuf(), Range{1, 2})
	p.Release()
	if p.Payload != nil || p.Sack != nil {
		t.Fatalf("released packet keeps Payload %v, Sack %v", p.Payload, p.Sack)
	}
}

func TestPoolOutstanding(t *testing.T) {
	pl := NewPool()
	a, b := pl.Get(), pl.Get()
	if a == b {
		t.Fatal("two live Gets returned the same packet")
	}
	if pl.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", pl.Outstanding())
	}
	a.Release()
	b.Release()
	if pl.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", pl.Outstanding())
	}
}

func TestLiteralReleaseIsNoOp(t *testing.T) {
	p := &Packet{FlowID: 3, Seq: 7, PayloadLen: 11, Payload: "kept"}
	want := *p
	p.Release()
	p.Release()
	if !reflect.DeepEqual(*p, want) {
		t.Fatalf("Release changed a literal packet: %+v", *p)
	}
}

func TestNilPoolGetIsHeapPacket(t *testing.T) {
	var pl *Pool
	p, q := pl.Get(), pl.Get()
	if p == q {
		t.Fatal("nil pool handed out the same packet twice")
	}
	if !reflect.DeepEqual(*p, Packet{}) {
		t.Fatalf("nil-pool packet is not zero: %+v", *p)
	}
	p.Seq = 9
	p.Release() // GC-owned: nothing happens, twice over
	p.Release()
	if p.Seq != 9 {
		t.Fatal("Release touched a nil-pool packet")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool().Get()
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	p.Release()
}

func TestSackBufIsInline(t *testing.T) {
	p := NewPool().Get()
	if n := testing.AllocsPerRun(100, func() {
		s := p.SackBuf()
		for i := 0; i < MaxSackBlocks; i++ {
			s = append(s, Range{uint64(i), uint64(i + 1)})
		}
		p.Sack = s
	}); n != 0 {
		t.Fatalf("filling SackBuf allocates %v, want 0", n)
	}
	if len(p.Sack) != MaxSackBlocks || &p.Sack[0] != &p.sackBuf[0] {
		t.Fatal("Sack does not alias the packet's inline storage")
	}
}

// TestPoisonScribbles holds the pktpoison build to its promise: a released
// packet reads wrong for ever and is never handed out again.
func TestPoisonScribbles(t *testing.T) {
	if !poison {
		t.Skip("needs -tags pktpoison")
	}
	pl := NewPool()
	p := pl.Get()
	p.Seq, p.PayloadLen, p.FlowID = 1, 2, 3
	p.Release()
	if p.Seq != ^uint64(0) || p.PayloadLen >= 0 || p.FlowID >= 0 || p.Gen >= 0 {
		t.Fatalf("released packet not poisoned: %+v", *p)
	}
	if !p.Tapped || p.EnqueuedAt != poisonTime || p.DequeuedAt != poisonTime {
		t.Fatalf("released packet's tap stamps not poisoned: %+v", *p)
	}
	if q := pl.Get(); q == p {
		t.Fatal("poison build recycled a released packet")
	}
}

// cyclePackets is BenchmarkPacketCycle's op: n times Get, fill the fields
// a data segment sets, Release.
func cyclePackets(pl *Pool, n int) {
	for j := 0; j < n; j++ {
		p := pl.Get()
		p.FlowID = 1
		p.Seq = uint64(j) * 1460
		p.PayloadLen = 1460
		p.HeaderLen = DefaultHeaderLen
		p.SentAt = 1
		p.Release()
	}
}

// BenchmarkPacketCycle measures what pooling costs per packet. One op is
// cycleBatch cycles, so a -benchtime 1x run times thousands of them.
func BenchmarkPacketCycle(b *testing.B) {
	const cycleBatch = 4096
	pl := NewPool()
	pl.Get().Release() // the one packet the loop recycles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cyclePackets(pl, cycleBatch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cycleBatch), "ns/pkt")
}

// TestPacketCycleZeroAlloc pins the recycled Get/Release cycle
// allocation-free.
func TestPacketCycleZeroAlloc(t *testing.T) {
	if poison {
		t.Skip("the pktpoison build never recycles")
	}
	pl := NewPool()
	pl.Get().Release() // the one packet the loop recycles
	if n := testing.AllocsPerRun(1000, func() { cyclePackets(pl, 1) }); n != 0 {
		t.Fatalf("a pooled packet cycle allocates %v, want 0", n)
	}
}
