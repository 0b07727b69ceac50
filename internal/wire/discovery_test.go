package wire

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// controlMessages returns one populated instance of every discovery
// message. (The tests below keep the names they had when the supervisor's
// control messages were datagrams too and lived beside these.)
func controlMessages() []Message {
	return []Message{
		&FindPeers{Nonce: 7, Index: 5, Addr: "127.0.0.1:40001"},
		&Peers{Nonce: 7, Entries: []PeerEntry{{Index: 0, Addr: "127.0.0.1:40010"},
			{Index: 1, Addr: "127.0.0.1:40012"}, {Index: 64, Addr: "127.0.0.1:40011"}}},
	}
}

// retiredDatagrams returns the supervisor's control messages as they were
// encoded while they were datagrams: one Hello, WorkerConfig, Start, Report
// and Ack, type bytes 4-8.
func retiredDatagrams() [][]byte {
	return [][]byte{
		[]byte("\x04\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00M\x00\x00\x00\x05\x01\x00\x00\x00\t\x0f127.0.0.1:40001\x0f127.0.0.1:40002"),
		[]byte("\x05\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00M\x00\x00\x00\x05\x00\x00\x00@\xff\xff\xff\xff\xff\xff\xff\xd6\x00\b\x00\x04\x00\x06\x00@\x00\x04\x00\x00\x01\x90\x00\x00\x0f\xa0\x00\x01\x00\x00\x00\x00\x0f127.0.0.1:40010"),
		[]byte("\x06\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00c"),
		[]byte("\a\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00d\x00\x00\x00\x05\x0e\x00\x00\x00\x00\x00\x01\xd4\xc0\x00\x00\x00\x00\x00\r\xbb\xa0\x00\x00\x00\x00\x00\x15\\\xc0\x00\x00\x00@\x00\x00\x00\x1f\x00\x00\x00\x00\x00\x00FP\x00\x00\x00\x00\x00\x00\x00\x00"),
		[]byte("\b\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00d"),
	}
}

// TestRetiredTypesRejected: a data socket no longer parses supervisor
// messages. What used to decode as one is a bad type now, whatever follows
// the type byte.
func TestRetiredTypesRejected(t *testing.T) {
	for i, data := range retiredDatagrams() {
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

func TestControlRoundTrip(t *testing.T) {
	for _, m := range controlMessages() {
		data, err := Encode(m, 0)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		if want := m.WireSize(0) - OverheadIPUDP; len(data) != want {
			t.Errorf("%T: encoded %d bytes, WireSize says %d", m, len(data), want)
		}
		got, err := Decode(data, 0)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		// Empty decoded slices come back non-nil with zero length; normalize.
		if p, ok := got.(*Peers); ok && len(p.Entries) == 0 {
			p.Entries = nil
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T: round trip mismatch:\n want %+v\n got  %+v", m, m, got)
		}
	}
}

func TestControlTruncationRejected(t *testing.T) {
	for _, m := range controlMessages() {
		data, err := Encode(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 9; cut < len(data); cut++ {
			if _, err := Decode(data[:cut], 0); err == nil {
				t.Fatalf("%T: truncation to %d bytes accepted", m, cut)
			}
		}
	}
}

func TestControlAddrTooLong(t *testing.T) {
	long := strings.Repeat("x", MaxAddrLen+1)
	for _, m := range []Message{
		&FindPeers{Addr: long},
		&Peers{Entries: []PeerEntry{{Addr: long}}},
	} {
		if _, err := Encode(m, 0); !errors.Is(err, ErrAddrTooLong) {
			t.Errorf("%T: oversized address: err = %v", m, err)
		}
	}
}

// TestControlIgnoresCellBytes pins that discovery decodes identically
// regardless of the cellBytes the endpoint was configured with: its
// datagrams arrive on the data socket, before and after the geometry does.
func TestControlIgnoresCellBytes(t *testing.T) {
	m := &FindPeers{Nonce: 5, Index: 2, Addr: "127.0.0.1:1"}
	data, err := Encode(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("cellBytes-dependent decode: %+v", got)
	}
}
