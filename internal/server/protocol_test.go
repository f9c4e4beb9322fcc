package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// readRequest decodes one request frame.
func readRequest(r io.Reader) (Request, error) {
	var hdr [reqFrame]byte
	return readRequestInto(r, &hdr)
}

// readResponse decodes one response frame with no scratch to reuse and
// SCAN pairs from the pool.
func readResponse(r io.Reader, op uint8) (Response, error) {
	resp, _, err := ReadResponseBuf(r, op, nil)
	return resp, err
}

// TestRequestRoundTrip encodes and re-decodes request frames, including
// the extremes of the key and value domains.
func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpGet, Key: 1},
		{Op: OpPut, Key: 42, Value: 99},
		{Op: OpUpdate, Key: 1<<64 - 1, Value: 1<<64 - 1},
		{Op: OpDelete, Key: 7},
		{Op: OpScan, Key: 0, Value: 1024},
		{Op: OpStats},
		{Op: 200, Key: 3, Value: 4}, // unknown ops still travel intact
	}
	var buf []byte
	for _, want := range cases {
		buf = AppendRequest(buf[:0], want)
		if len(buf) != reqFrame {
			t.Fatalf("frame size %d, want %d", len(buf), reqFrame)
		}
		got, err := readRequest(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("readRequest(%+v): %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
	}
}

// TestRequestPipelinedDecode decodes several frames back to back from
// one stream, as the server's reader does.
func TestRequestPipelinedDecode(t *testing.T) {
	var buf []byte
	var want []Request
	for i := uint64(1); i <= 20; i++ {
		r := Request{Op: uint8(i%5) + 1, Key: i, Value: i * 3}
		want = append(want, r)
		buf = AppendRequest(buf, r)
	}
	rd := bytes.NewReader(buf)
	for i, w := range want {
		got, err := readRequest(rd)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != w {
			t.Fatalf("frame %d: %+v, want %+v", i, got, w)
		}
	}
	if rd.Len() != 0 {
		t.Fatalf("%d trailing bytes", rd.Len())
	}
}

// TestReadRequestRejectsBadFraming checks that a length field other than
// the fixed request body size is an error, not a desynchronized read.
func TestReadRequestRejectsBadFraming(t *testing.T) {
	for _, n := range []uint32{0, 16, 18, 1 << 30} {
		buf := binary.BigEndian.AppendUint32(nil, n)
		buf = append(buf, make([]byte, reqBody)...)
		if _, err := readRequest(bytes.NewReader(buf)); err == nil {
			t.Errorf("length %d accepted", n)
		}
	}
}

// TestResponseRoundTrip covers all three payload shapes.
func TestResponseRoundTrip(t *testing.T) {
	var buf []byte

	buf = AppendScalarResponse(buf[:0], StatusMiss, 123)
	resp, err := readResponse(bytes.NewReader(buf), OpGet)
	if err != nil || resp.Status != StatusMiss || resp.Value != 123 {
		t.Fatalf("scalar round trip = %+v, %v", resp, err)
	}

	pairs := []Pair{{Key: 1, Value: 10}, {Key: 2, Value: 20}, {Key: 300, Value: 3000}}
	buf = AppendScanResponse(buf[:0], StatusOK, pairs)
	resp, err = readResponse(bytes.NewReader(buf), OpScan)
	if err != nil || resp.Status != StatusOK || len(resp.Pairs) != 3 {
		t.Fatalf("scan round trip = %+v, %v", resp, err)
	}
	for i, p := range pairs {
		if resp.Pairs[i] != p {
			t.Fatalf("scan pair %d = %+v, want %+v", i, resp.Pairs[i], p)
		}
	}
	buf = AppendScanResponse(buf[:0], StatusOK, nil)
	if resp, err = readResponse(bytes.NewReader(buf), OpScan); err != nil || len(resp.Pairs) != 0 {
		t.Fatalf("empty scan round trip = %+v, %v", resp, err)
	}

	text := []byte("server/requests 7\nserver/responses 7\n")
	buf = AppendStatsResponse(buf[:0], StatusOK, text)
	resp, err = readResponse(bytes.NewReader(buf), OpStats)
	if err != nil || !bytes.Equal(resp.Stats, text) {
		t.Fatalf("stats round trip = %+v, %v", resp, err)
	}
}

// TestReadResponseRejectsMalformed checks the decoder's shape guards: a
// scalar body of the wrong size, a scan whose pair count disagrees with
// its payload, and an out-of-range frame length.
func TestReadResponseRejectsMalformed(t *testing.T) {
	scalar := binary.BigEndian.AppendUint32(nil, 5) // status + 4 bytes: too short
	scalar = append(scalar, StatusOK, 1, 2, 3, 4)
	if _, err := readResponse(bytes.NewReader(scalar), OpGet); err == nil {
		t.Error("short scalar body accepted")
	}

	scan := binary.BigEndian.AppendUint32(nil, 1+4+8) // claims 2 pairs, carries half of one
	scan = append(scan, StatusOK)
	scan = binary.BigEndian.AppendUint32(scan, 2)
	scan = append(scan, make([]byte, 8)...)
	if _, err := readResponse(bytes.NewReader(scan), OpScan); err == nil {
		t.Error("scan count/payload mismatch accepted")
	}

	huge := binary.BigEndian.AppendUint32(nil, maxRespFrame+1)
	if _, err := readResponse(bytes.NewReader(huge), OpGet); err == nil {
		t.Error("oversized frame length accepted")
	}
	empty := binary.BigEndian.AppendUint32(nil, 0)
	if _, err := readResponse(bytes.NewReader(empty), OpGet); err == nil {
		t.Error("zero-length frame accepted")
	}
}

// FuzzReadRequest feeds arbitrary bytes to the request decoder: it must
// never panic, and whenever it accepts a frame, re-encoding must
// reproduce the consumed bytes exactly (the wire format is canonical).
func FuzzReadRequest(f *testing.F) {
	f.Add(AppendRequest(nil, Request{Op: OpGet, Key: 1}))
	f.Add(AppendRequest(nil, Request{Op: OpPut, Key: 77, Value: 1 << 40}))
	f.Add(AppendRequest(nil, Request{Op: OpScan, Key: 0, Value: 9}))
	f.Add(AppendRequest(AppendRequest(nil, Request{Op: OpStats}), Request{Op: OpDelete, Key: 3}))
	f.Add([]byte{0, 0, 0, 17})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := readRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got := AppendRequest(nil, r); !bytes.Equal(got, data[:reqFrame]) {
			t.Fatalf("re-encode of %+v = %x, want %x", r, got, data[:reqFrame])
		}
	})
}

// FuzzReadResponse feeds arbitrary bytes to the response decoder under
// every op's payload shape: it must error or decode, never panic, and an
// accepted decode must re-encode to the consumed frame.
func FuzzReadResponse(f *testing.F) {
	f.Add(uint8(OpGet), AppendScalarResponse(nil, StatusOK, 7))
	f.Add(uint8(OpScan), AppendScanResponse(nil, StatusOK, []Pair{{Key: 1, Value: 2}, {Key: 3, Value: 4}}))
	f.Add(uint8(OpScan), AppendScanResponse(nil, StatusOK, nil))
	f.Add(uint8(OpStats), AppendStatsResponse(nil, StatusOK, []byte("a 1\n")))
	f.Add(uint8(OpGet), []byte{0, 0, 0, 2, 1})
	f.Fuzz(func(t *testing.T, op uint8, data []byte) {
		resp, err := readResponse(bytes.NewReader(data), op)
		if err != nil {
			return
		}
		var again []byte
		switch op {
		case OpScan:
			again = AppendScanResponse(nil, resp.Status, resp.Pairs)
		case OpStats:
			again = AppendStatsResponse(nil, resp.Status, resp.Stats)
		default:
			again = AppendScalarResponse(nil, resp.Status, resp.Value)
		}
		if !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("re-encode mismatch for op %d", op)
		}
	})
}
