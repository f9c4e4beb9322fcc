package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"testing"
)

// readRequest decodes one request frame.
func readRequest(r io.Reader) (Request, error) {
	reqs, err := readRequests(bufio.NewReader(r), nil, 1)
	if len(reqs) == 0 {
		return Request{}, err
	}
	return reqs[0], err
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

// TestRequestPipelinedDecode decodes frames back to back from one
// stream, as the serve loop does: each call takes every whole frame
// buffered, up to the window.
func TestRequestPipelinedDecode(t *testing.T) {
	var buf []byte
	var want []Request
	for i := uint64(1); i <= 20; i++ {
		r := Request{Op: uint8(i%5) + 1, Key: i, Value: i * 3}
		want = append(want, r)
		buf = AppendRequest(buf, r)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	var got []Request
	for _, n := range []int{7, 7, 6} {
		batch, err := readRequests(br, nil, 7)
		if err != nil || len(batch) != n {
			t.Fatalf("after %d frames: a batch of %d, %v; want %d", len(got), len(batch), err, n)
		}
		got = append(got, batch...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if _, err := readRequests(br, nil, 7); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want EOF", err)
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

// TestReadRequestsStopsAtBadFrame checks that a bad length word in the
// middle of a buffered batch returns the whole frames before it with the
// error.
func TestReadRequestsStopsAtBadFrame(t *testing.T) {
	buf := AppendRequest(AppendRequest(nil, Request{Op: OpGet, Key: 1}), Request{Op: OpPut, Key: 2, Value: 3})
	buf = binary.BigEndian.AppendUint32(buf, reqBody+1)
	buf = append(buf, make([]byte, reqBody)...)
	buf = AppendRequest(buf, Request{Op: OpGet, Key: 4})
	reqs, err := readRequests(bufio.NewReader(bytes.NewReader(buf)), nil, DefaultWindow)
	if want := []Request{{Op: OpGet, Key: 1}, {Op: OpPut, Key: 2, Value: 3}}; err == nil || !slices.Equal(reqs, want) {
		t.Fatalf("readRequests = %+v, %v; want %+v and a framing error", reqs, err, want)
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

// FuzzReadRequest feeds arbitrary bytes to the batch decoder through a
// 64-byte reader, which holds three frames and a byte of the fourth, so
// frames straddle buffer refills, at windows of 1, 2 and MaxWindow. It must
// never panic, and the frames it accepts must re-encode to the bytes they
// were decoded from (the wire format is canonical): every whole frame
// when it reaches the end cleanly, and otherwise every frame before the
// first bad length word.
func FuzzReadRequest(f *testing.F) {
	f.Add(AppendRequest(nil, Request{Op: OpGet, Key: 1}))
	f.Add(AppendRequest(nil, Request{Op: OpPut, Key: 77, Value: 1 << 40}))
	f.Add(AppendRequest(nil, Request{Op: OpScan, Key: 0, Value: 9}))
	f.Add(AppendRequest(AppendRequest(nil, Request{Op: OpStats}), Request{Op: OpDelete, Key: 3}))
	f.Add([]byte{0, 0, 0, 17})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(AppendRequest(append(AppendRequest(nil, Request{Op: OpGet, Key: 5}), make([]byte, reqFrame)...), Request{Op: OpGet, Key: 6}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, window := range []int{1, 2, MaxWindow} {
			br := bufio.NewReaderSize(bytes.NewReader(data), 64)
			var got []Request
			var err error
			for err == nil {
				got, err = readRequests(br, got, window)
			}
			n := len(got) * reqFrame
			if err == io.EOF {
				n = len(data) - len(data)%reqFrame
			} else if len(data) < n+reqFrame || binary.BigEndian.Uint32(data[n:]) == reqBody {
				t.Fatalf("window %d: %v after %d frames, but the next frame is whole and well framed", window, err, len(got))
			}
			if enc := appendRequests(nil, got); !bytes.Equal(enc, data[:n]) {
				t.Fatalf("window %d: re-encode of %d frames = %x, want %x", window, len(got), enc, data[:n])
			}
		}
	})
}

// appendRequests appends the frames of reqs to buf.
func appendRequests(buf []byte, reqs []Request) []byte {
	for _, r := range reqs {
		buf = AppendRequest(buf, r)
	}
	return buf
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
