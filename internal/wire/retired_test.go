package wire

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readHex returns the bytes of a testdata file written by hexLines.
func readHex(tb testing.TB, path string) []byte {
	tb.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return b
}

// retiredDatagrams returns one datagram of every retired type, 4-10, as
// encoded while the type was in use: the supervisor's Hello, WorkerConfig,
// Start, Report and Ack (4-8), then the discovery crawl's FindPeers and
// Peers (9-10), whose bytes were recorded by its encoder in
// testdata/encodings/findpeers.hex and peers.hex.
func retiredDatagrams(tb testing.TB) [][]byte {
	tb.Helper()
	return [][]byte{
		[]byte("\x04\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00M\x00\x00\x00\x05\x01\x00\x00\x00\t\x0f127.0.0.1:40001\x0f127.0.0.1:40002"),
		[]byte("\x05\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00M\x00\x00\x00\x05\x00\x00\x00@\xff\xff\xff\xff\xff\xff\xff\xd6\x00\b\x00\x04\x00\x06\x00@\x00\x04\x00\x00\x01\x90\x00\x00\x0f\xa0\x00\x01\x00\x00\x00\x00\x0f127.0.0.1:40010"),
		[]byte("\x06\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00c"),
		[]byte("\a\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00d\x00\x00\x00\x05\x0e\x00\x00\x00\x00\x00\x01\xd4\xc0\x00\x00\x00\x00\x00\r\xbb\xa0\x00\x00\x00\x00\x00\x15\\\xc0\x00\x00\x00@\x00\x00\x00\x1f\x00\x00\x00\x00\x00\x00FP\x00\x00\x00\x00\x00\x00\x00\x00"),
		[]byte("\b\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00d"),
		readHex(tb, filepath.Join("testdata", "encodings", "findpeers.hex")),
		readHex(tb, filepath.Join("testdata", "encodings", "peers.hex")),
	}
}

// TestRetiredTypesRejected: a data socket parses neither the supervisor's
// old datagrams nor the discovery crawl's. What used to decode as one is a
// bad type now, whatever follows the type byte.
func TestRetiredTypesRejected(t *testing.T) {
	for i, data := range retiredDatagrams(t) {
		if typ := data[0]; typ != byte(4+i) {
			t.Fatalf("datagram %d has type byte %d", i, typ)
		}
		if _, err := Decode(data, 0); !errors.Is(err, ErrBadType) {
			t.Errorf("type %d: err = %v, want ErrBadType", data[0], err)
		}
		if _, err := Decode(data[:9], 64); !errors.Is(err, ErrBadType) {
			t.Errorf("type %d, header only: err = %v, want ErrBadType", data[0], err)
		}
	}
}
