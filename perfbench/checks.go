package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// checks counts output checks across every rank of a run. A failed check
// is counted and its first few messages kept; it never stops the run, so
// the error rate covers all the work attempted.
type checks struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	msgs []string
}

const keptFailures = 8

// check counts one checked operation, failed unless ok.
func (c *checks) check(ok bool, format string, args ...any) bool {
	c.attempted.Add(1)
	if ok {
		return true
	}
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.msgs) < keptFailures {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
	return false
}

// errorRate is failed / attempted (0 when nothing was checked).
func (c *checks) errorRate() float64 {
	a := c.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(c.failed.Load()) / float64(a)
}

func (c *checks) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.msgs...)
}

// checkPermutation counts one check that k is a permutation of 0..n-1.
func (c *checks) checkPermutation(k []int, n int, who int) bool {
	ok := len(k) == n
	seen := make([]bool, n)
	for _, v := range k {
		if !ok {
			break
		}
		if v < 0 || v >= n || seen[v] {
			ok = false
			break
		}
		seen[v] = true
	}
	return c.check(ok, "rank %d: k is not a permutation of %d ranks", who, n)
}

// splitmix64 is the generator behind every seeded payload: cheap, and a
// function of (seed, stream, index) alone, so any rank can regenerate any
// other rank's data to check it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillBlock writes the seeded block of one role: 8 bytes per step of the
// (seed, role) stream.
func fillBlock(buf []byte, seed int64, role int) {
	s := splitmix64(uint64(seed)) ^ splitmix64(uint64(role)+1)
	var w [8]byte
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(w[:], splitmix64(s+uint64(i)))
		copy(buf[i:], w[:])
	}
}

// reducePayload returns rank's Allreduce contribution: elems int64 values
// below 2^20, so any world's sum stays far from overflow.
func reducePayload(seed int64, rank, elems int) []byte {
	b := make([]byte, 8*elems)
	s := splitmix64(uint64(seed)^0x5eed) ^ splitmix64(uint64(rank)+1)
	for i := 0; i < elems; i++ {
		binary.LittleEndian.PutUint64(b[8*i:], splitmix64(s+uint64(i))&(1<<20-1))
	}
	return b
}

// reduceExpected is the elementwise int64 sum of every rank's payload.
func reduceExpected(seed int64, np, elems int) []byte {
	sum := make([]int64, elems)
	for r := 0; r < np; r++ {
		p := reducePayload(seed, r, elems)
		for i := range sum {
			sum[i] += int64(binary.LittleEndian.Uint64(p[8*i:]))
		}
	}
	out := make([]byte, 8*elems)
	for i, v := range sum {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

// checkAllreduce counts one check that a rank's Allreduce result is the
// seeded sum.
func (c *checks) checkAllreduce(got, want []byte, rank, iter int) bool {
	return c.check(bytes.Equal(got, want), "rank %d iteration %d: Allreduce result differs from the seeded sum", rank, iter)
}

// checkRedistributed counts one check that the block a rank received from
// Redistribute is role k[r]'s seeded block.
func (c *checks) checkRedistributed(got []byte, size int, seed int64, k []int, r int) bool {
	want := make([]byte, size)
	ok := r >= 0 && r < len(k)
	if ok {
		fillBlock(want, seed, k[r])
		ok = bytes.Equal(got, want)
	}
	return c.check(ok, "rank %d: redistributed block is not role k[%d]'s", r, r)
}
