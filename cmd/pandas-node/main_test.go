package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	// -gateway went with the light-client sampling service it started.
	if err := run([]string{"-gateway", ":0"}); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -gateway") {
		t.Fatalf("-gateway :0: err = %v, want an undefined-flag error", err)
	}
}
