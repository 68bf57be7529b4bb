// Package collectives implements the collective operations classical
// distributed matrix multiplication algorithms depend on — broadcast,
// reduce, all-reduce, all-gather, and reduce-scatter — built exclusively on
// the one-sided primitives of package shmem (ring algorithms using remote
// get and accumulate).
//
// The universal algorithm itself needs none of these; they exist for the
// DTensor-style comparison system (its redistribute and reductions), the
// "packed collectives" dependency the paper calls out as a vendor-support
// burden (§1, §5.2).
package collectives

import (
	"fmt"
	rt "slicing/internal/runtime"
)

// Group identifies a subset of world ranks that participate in a
// collective, with a fixed ordering. All members must call the collective;
// member index 0 plays the root role unless stated otherwise.
type Group struct {
	Ranks []int
}

// WorldGroup returns the group of all ranks in ascending order.
func WorldGroup(p int) Group {
	g := Group{Ranks: make([]int, p)}
	for i := range g.Ranks {
		g.Ranks[i] = i
	}
	return g
}

// NewGroup builds a group from explicit ranks.
func NewGroup(ranks ...int) Group {
	if len(ranks) == 0 {
		panic("collectives: empty group")
	}
	return Group{Ranks: append([]int(nil), ranks...)}
}

// Size returns the number of members.
func (g Group) Size() int { return len(g.Ranks) }

// IndexOf returns the member index of rank, or -1 if rank is not a member.
func (g Group) IndexOf(rank int) int {
	for i, r := range g.Ranks {
		if r == rank {
			return i
		}
	}
	return -1
}

// Contains reports whether rank is in the group.
func (g Group) Contains(rank int) bool { return g.IndexOf(rank) >= 0 }

// Broadcast copies the root member's region [offset, offset+n) of seg into
// every other member's same region. One-sided pull implementation: each
// non-root member gets the data directly from the root after a barrier.
// Collective over the whole world (the barrier is global, which is the
// only synchronization primitive the PGAS layer exposes).
func Broadcast(pe rt.PE, g Group, seg rt.SegmentID, offset, n int, rootIdx int) {
	checkRoot(g, rootIdx)
	pe.Barrier() // root data complete
	if idx := g.IndexOf(pe.Rank()); idx >= 0 && idx != rootIdx {
		local := pe.Local(seg)
		pe.Get(local[offset:offset+n], seg, g.Ranks[rootIdx], offset)
	}
	pe.Barrier()
}

// Reduce sums every member's region of seg into the root member's region.
// Non-root contributions are accumulated with one-sided atomic adds; the
// non-root regions keep their original values.
func Reduce(pe rt.PE, g Group, seg rt.SegmentID, offset, n int, rootIdx int) {
	checkRoot(g, rootIdx)
	pe.Barrier() // all contributions in place
	if idx := g.IndexOf(pe.Rank()); idx >= 0 && idx != rootIdx {
		local := pe.Local(seg)
		pe.AccumulateAdd(local[offset:offset+n], seg, g.Ranks[rootIdx], offset)
	}
	pe.Barrier()
}

// AllReduce sums every member's region and leaves the result on all
// members (reduce to member 0, then broadcast).
func AllReduce(pe rt.PE, g Group, seg rt.SegmentID, offset, n int) {
	Reduce(pe, g, seg, offset, n, 0)
	Broadcast(pe, g, seg, offset, n, 0)
}

// ReduceScatter sums every member's region and leaves member i with the
// i-th of Size() equal chunks of the sum (the remainder goes to the last
// member). Each member pulls and sums its own chunk from all peers, which
// spreads network load the way a ring reduce-scatter does.
func ReduceScatter(pe rt.PE, g Group, seg rt.SegmentID, offset, n int, scratch []float32) {
	p := g.Size()
	pe.Barrier()
	if idx := g.IndexOf(pe.Rank()); idx >= 0 {
		chunk := n / p
		begin := offset + idx*chunk
		size := chunk
		if idx == p-1 {
			size = n - (p-1)*chunk
		}
		if len(scratch) < size {
			scratch = make([]float32, size)
		}
		local := pe.Local(seg)
		mine := local[begin : begin+size]
		for step := 1; step < p; step++ {
			peer := g.Ranks[(idx+step)%p]
			pe.Get(scratch[:size], seg, peer, begin)
			for i := range mine {
				mine[i] += scratch[i]
			}
		}
	}
	pe.Barrier()
}

// AllGather concatenates each member's chunk into every member's full
// region: member i owns chunk i of n/Size() elements (remainder on the
// last member); afterwards all members hold all chunks. Pull-based.
func AllGather(pe rt.PE, g Group, seg rt.SegmentID, offset, n int) {
	p := g.Size()
	pe.Barrier()
	if idx := g.IndexOf(pe.Rank()); idx >= 0 {
		chunk := n / p
		local := pe.Local(seg)
		for step := 1; step < p; step++ {
			srcIdx := (idx + step) % p
			peer := g.Ranks[srcIdx]
			begin := offset + srcIdx*chunk
			size := chunk
			if srcIdx == p-1 {
				size = n - (p-1)*chunk
			}
			pe.Get(local[begin:begin+size], seg, peer, begin)
		}
	}
	pe.Barrier()
}

func checkRoot(g Group, rootIdx int) {
	if rootIdx < 0 || rootIdx >= g.Size() {
		panic(fmt.Sprintf("collectives: root index %d out of group of %d", rootIdx, g.Size()))
	}
}
