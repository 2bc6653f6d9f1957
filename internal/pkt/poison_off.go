//go:build !pktpoison

package pkt

// poison is the test-only build mode of poison_on.go; off by default.
const poison = false
