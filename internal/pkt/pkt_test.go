package pkt

import (
	"testing"
	"unsafe"
)

// TestPacketSize pins the packet at the 208 B it had before the link tap's
// stamp: the one-byte fields share a word, which pays for DequeuedAt. Every
// packet standing in a queue costs this much, and a larger one made
// bulk_clean measurably slower.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 208 {
		t.Fatalf("pkt.Packet is %d B, want at most 208", n)
	}
}

func TestFlags(t *testing.T) {
	f := FlagSYN | FlagACK
	if !f.Has(FlagSYN) || !f.Has(FlagACK) || !f.Has(FlagSYN|FlagACK) {
		t.Fatal("Has misses set flags")
	}
	if f.Has(FlagFIN) {
		t.Fatal("Has reports unset flag")
	}
}

func TestSizeDefaultsHeader(t *testing.T) {
	p := &Packet{PayloadLen: 1460}
	if p.Size() != 1500 {
		t.Fatalf("Size = %d", p.Size())
	}
	p.HeaderLen = 60
	if p.Size() != 1520 {
		t.Fatalf("Size with header = %d", p.Size())
	}
}

func TestEnd(t *testing.T) {
	p := &Packet{Seq: 1000, PayloadLen: 500}
	if p.End() != 1500 {
		t.Fatalf("End = %d", p.End())
	}
}

func TestString(t *testing.T) {
	p := &Packet{FlowID: 3, Seq: 7, PayloadLen: 11, Flags: FlagACK}
	if p.String() == "" {
		t.Fatal("empty String")
	}
}
