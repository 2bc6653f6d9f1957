//go:build pktpoison

package pkt

// poison makes Release scribble sentinels over the packet and never
// recycle it, so a read after release is wrong deterministically.
const poison = true
