package core

import (
	"bytes"
	"fmt"
	"sort"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/ids"
)

// Table holds the epoch-wide assignment state shared by every honest
// participant: the node list, each node's custody assignment, and the
// inverse holders index per line. Because the assignment function is a
// pure function of (epoch seed, node ID), every node with the same view
// derives the same table — this is what lets consolidation-boost maps
// reference holders by rank instead of by full identity.
//
// A Table is immutable after construction and safe for concurrent reads.
type Table struct {
	seed        assign.Seed
	params      assign.Params
	nodeIDs     []ids.NodeID
	assignments []assign.Assignment
	// holders[kind][line] lists node indices assigned the line, sorted
	// by node ID bytes (a canonical, view-independent order).
	holders [2][][]int
}

// NewTable computes assignments and the holders index for all nodes.
func NewTable(p assign.Params, seed assign.Seed, nodeIDs []ids.NodeID) (*Table, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t := &Table{seed: seed, params: p, nodeIDs: nodeIDs}
	t.assignments = make([]assign.Assignment, len(nodeIDs))
	t.holders[0] = make([][]int, p.N)
	t.holders[1] = make([][]int, p.N)
	for i, id := range nodeIDs {
		a, err := assign.For(p, seed, id)
		if err != nil {
			return nil, fmt.Errorf("core: assignment for node %d: %w", i, err)
		}
		t.assignments[i] = a
		for _, r := range a.Rows {
			t.holders[0][r] = append(t.holders[0][r], i)
		}
		for _, c := range a.Cols {
			t.holders[1][c] = append(t.holders[1][c], i)
		}
	}
	// Canonical holder order: by node ID bytes.
	for kind := 0; kind < 2; kind++ {
		for _, hs := range t.holders[kind] {
			sort.Slice(hs, func(a, b int) bool {
				return bytes.Compare(nodeIDs[hs[a]][:], nodeIDs[hs[b]][:]) < 0
			})
		}
	}
	return t, nil
}

// NumNodes returns the number of nodes in the table.
func (t *Table) NumNodes() int { return len(t.nodeIDs) }

// ID returns a node's identity hash.
func (t *Table) ID(node int) ids.NodeID { return t.nodeIDs[node] }

// Assignment returns a node's custody assignment.
func (t *Table) Assignment(node int) assign.Assignment { return t.assignments[node] }

// Holders returns the node indices assigned the line, in canonical
// order. The returned slice must not be modified.
func (t *Table) Holders(l blob.Line) []int {
	return t.holders[kindIndex(l.Kind)][l.Index]
}

// HolderAt resolves a consolidation-boost HolderRef back to a node
// index, or -1 if the rank is out of range.
func (t *Table) HolderAt(l blob.Line, rank int) int {
	hs := t.Holders(l)
	if rank < 0 || rank >= len(hs) {
		return -1
	}
	return hs[rank]
}

func kindIndex(k blob.LineKind) int {
	if k == blob.Row {
		return 0
	}
	return 1
}
