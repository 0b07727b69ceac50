package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/swarm"
	"pandas/internal/wire"
)

func TestReadPeers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "peers.txt")
	content := "# comment\n127.0.0.1:9000\n\n127.0.0.1:9001\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readPeers(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "127.0.0.1:9000" || got[1] != "127.0.0.1:9001" {
		t.Fatalf("got %v", got)
	}
	if _, err := readPeers(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunValidatesFlags(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("missing flags accepted")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "peers.txt")
	os.WriteFile(path, []byte("127.0.0.1:9000\n"), 0o644)
	if err := run([]string{"-peers", path, "-index", "5"}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	// The builder is the last peers entry and only that one.
	os.WriteFile(path, []byte("127.0.0.1:9000\n127.0.0.1:9001\n127.0.0.1:9002\n"), 0o644)
	if err := run([]string{"-peers", path, "-index", "1", "-builder"}); err == nil {
		t.Fatal("-builder accepted on an index that is not the last")
	}
	if err := run([]string{"-peers", path, "-index", "2"}); err == nil {
		t.Fatal("last index accepted without -builder")
	}
}

// TestPeekCopiesOutOfCustody: the gateway caches what peek returns past
// the slot boundary, while the store keeps a payload that came off the
// socket in an arena it rewinds and refills every slot. peek's copy is
// what keeps a cached cell from turning into next slot's bytes.
func TestPeekCopiesOutOfCustody(t *testing.T) {
	cfg := core.TestConfig()
	cfg.RealPayloads = true
	h, err := swarm.NewHost(swarm.HostOptions{Config: cfg, Seed: 7, Nodes: 4, Index: 0, Bind: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Endpoint.Close()
	id := blob.CellID{Row: 3, Col: 4}
	datagram := make([]byte, cfg.Blob.CellBytes) // the buffer the cell is lent from
	land := func(slot uint64, fill byte) {
		t.Helper()
		h.StartSlot(slot)
		done := make(chan error, 1)
		h.Endpoint.Run(func() {
			for i := range datagram {
				datagram[i] = fill
			}
			_, err := h.Node.Store().Add(wire.Cell{ID: id, Data: datagram, Borrowed: true})
			done <- err
		})
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	land(1, 0x11)
	cached, err := peek(context.Background(), h, 1, id)
	if err != nil {
		t.Fatal(err)
	}
	land(2, 0x22) // same cell, same arena bytes, next slot
	for _, b := range cached.Data {
		if b != 0x11 {
			t.Fatal("a cell served for slot 1 changed when slot 2 landed")
		}
	}
	if _, err := peek(context.Background(), h, 1, id); err == nil {
		t.Fatal("slot 1 served from slot 2's custody")
	}
	now, err := peek(context.Background(), h, 2, id)
	if err != nil || now.Data[0] != 0x22 {
		t.Fatalf("slot 2 peek = %v, %v", now.Data[:1], err)
	}
}
