package core

import (
	"testing"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/ids"
)

func testTable(t *testing.T, n int) *Table {
	t.Helper()
	p := assign.Params{Rows: 2, Cols: 2, N: 32}
	nodeIDs := make([]ids.NodeID, n)
	for i := range nodeIDs {
		nodeIDs[i] = ids.NewTestIdentity(int64(i)).ID
	}
	var seed assign.Seed
	seed[0] = 9
	tab, err := NewTable(p, seed, nodeIDs)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTableHoldersConsistentWithAssignments(t *testing.T) {
	tab := testTable(t, 80)
	for i := 0; i < tab.NumNodes(); i++ {
		a := tab.Assignment(i)
		for _, l := range a.Lines() {
			if tab.HolderRank(l, i) < 0 {
				t.Fatalf("node %d not in holders of its line %v", i, l)
			}
		}
	}
	// Every holder entry corresponds to an actual assignment.
	for kind := 0; kind < 2; kind++ {
		for li := 0; li < 32; li++ {
			l := blob.Line{Kind: blob.Row, Index: uint16(li)}
			if kind == 1 {
				l.Kind = blob.Col
			}
			for _, h := range tab.Holders(l) {
				if !tab.Assignment(h).HasLine(l) {
					t.Fatalf("holder %d of %v lacks the assignment", h, l)
				}
			}
		}
	}
}

// HolderRank returns the position of node within the canonical holder
// list of the line, or -1 if the node does not hold it: the HolderRef a
// boost entry names the node by.
func (t *Table) HolderRank(l blob.Line, node int) int {
	for i, h := range t.Holders(l) {
		if h == node {
			return i
		}
	}
	return -1
}

func TestTableHolderRankRoundTrip(t *testing.T) {
	tab := testTable(t, 50)
	l := blob.Line{Kind: blob.Row, Index: 3}
	for rank, h := range tab.Holders(l) {
		if got := tab.HolderAt(l, rank); got != h {
			t.Fatalf("HolderAt(%d) = %d, want %d", rank, got, h)
		}
		if got := tab.HolderRank(l, h); got != rank {
			t.Fatalf("HolderRank(%d) = %d, want %d", h, got, rank)
		}
	}
	if tab.HolderAt(l, -1) != -1 || tab.HolderAt(l, 10000) != -1 {
		t.Fatal("out-of-range rank should return -1")
	}
}

func TestTableCanonicalOrderIsByID(t *testing.T) {
	tab := testTable(t, 60)
	l := blob.Line{Kind: blob.Col, Index: 7}
	hs := tab.Holders(l)
	for i := 1; i < len(hs); i++ {
		a, b := tab.ID(hs[i-1]), tab.ID(hs[i])
		if !a.Less(b) && a != b {
			t.Fatal("holders not sorted by node ID")
		}
	}
}

func TestTableRejectsBadParams(t *testing.T) {
	if _, err := NewTable(assign.Params{}, assign.Seed{}, nil); err == nil {
		t.Fatal("invalid params accepted")
	}
}
