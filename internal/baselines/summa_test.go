// Package baselines holds test-only reference implementations of the
// classical distributed matrix multiplication algorithms the paper's
// universal algorithm generalizes: SUMMA (2D, stationary C,
// broadcast-based), Cannon's algorithm (2D with skewed rotation), 1.5D
// (1D partitioning with replication), and 2.5D (replicated 2D grids). Each
// imposes the preconditions traditional implementations impose — aligned
// tiles, particular grids, divisibility — which is exactly the limitation
// (§1) that motivates the universal algorithm. All are built on the same
// one-sided PGAS substrate and verified against the serial reference. No
// package imports them, so they live in _test.go files and ship in no
// binary.
package baselines

import (
	"fmt"

	"slicing/internal/distmat"
	"slicing/internal/index"
	rt "slicing/internal/runtime"
	"slicing/internal/tile"
)

// SUMMAProblem holds the operands of a SUMMA multiplication: A, B, C all
// 2D-partitioned on the same ProcRows×ProcCols grid with a shared k-block
// size, the classical aligned-tiles precondition.
type SUMMAProblem struct {
	A, B, C            *distmat.Matrix
	ProcRows, ProcCols int
	KBlock             int
}

// NewSUMMA allocates operands for an m×n×k SUMMA multiply on a pr×pc
// process grid with k-blocking factor kb. The world must have exactly
// pr*pc PEs.
func NewSUMMA(w rt.World, m, n, k, pr, pc, kb int) SUMMAProblem {
	if pr*pc != w.NumPE() {
		panic(fmt.Sprintf("baselines: SUMMA grid %dx%d over %d PEs", pr, pc, w.NumPE()))
	}
	if kb <= 0 {
		kb = ceilDiv(k, pc)
	}
	return SUMMAProblem{
		A:        distmat.New(w, m, k, distmat.Custom{TileRows: ceilDiv(m, pr), TileCols: kb, ProcRows: pr, ProcCols: pc}, 1),
		B:        distmat.New(w, k, n, distmat.Custom{TileRows: kb, TileCols: ceilDiv(n, pc), ProcRows: pr, ProcCols: pc}, 1),
		C:        distmat.New(w, m, n, distmat.Block2D{ProcRows: pr, ProcCols: pc}, 1),
		ProcRows: pr, ProcCols: pc, KBlock: kb,
	}
}

// Multiply runs one-sided SUMMA (SRUMMA-style): instead of two-sided
// broadcasts, every PE pulls the stage-t panel of A from its row peer and
// of B from its column peer with remote gets, then multiplies into its
// stationary local C tile. Collective.
func (sp SUMMAProblem) Multiply(pe rt.PE) {
	sp.C.Zero(pe)
	slot := pe.Rank()
	myRow := slot / sp.ProcCols
	myCol := slot % sp.ProcCols

	cIdx := index.TileIdx{Row: myRow, Col: myCol}
	cTile := sp.C.Tile(pe, cIdx, distmat.LocalReplica)
	cb := sp.C.TileBounds(cIdx)

	_, kStages := sp.A.GridShape()
	for t := 0; t < kStages; t++ {
		// Skew the stage order per process row/column so pulls of the same
		// panel do not all hit one owner simultaneously (the iteration
		// offset of §4.2, which SUMMA variants also employ).
		stage := (t + myRow + myCol) % kStages
		aIdx := index.TileIdx{Row: myRow, Col: stage}
		bIdx := index.TileIdx{Row: stage, Col: myCol}
		aTile := sp.A.GetTile(pe, aIdx, distmat.LocalReplica)
		bTile := sp.B.GetTile(pe, bIdx, distmat.LocalReplica)

		ab := sp.A.TileBounds(aIdx)
		bb := sp.B.TileBounds(bIdx)
		// Aligned-tile precondition: A row panel matches C rows, B column
		// panel matches C cols, and the k extents agree.
		if ab.Rows != cb.Rows || bb.Cols != cb.Cols || ab.Cols != bb.Rows {
			panic(fmt.Sprintf("baselines: SUMMA misalignment A%v B%v C%v", ab, bb, cb))
		}
		tile.Gemm(cTile, aTile, bTile)
		rt.ChargeGemm(pe, cTile.Rows, cTile.Cols, aTile.Cols)
	}
	pe.Barrier()
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
