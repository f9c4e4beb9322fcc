// Package server is the network front door of the native HybriDS
// runtime: a TCP serving layer over core.Hybrid speaking a compact
// length-prefixed binary protocol whose operations map 1:1 onto hds.Kind
// (GET/PUT/UPDATE/DELETE/SCAN), plus a STATS introspection request.
//
// Each connection is served by one goroutine, which coalesces pipelined
// client requests into core.Batcher windows — the paper's §3.5
// non-blocking admission primitive — stages the responses in request
// order and writes them back, under a slow-client write deadline, before
// it would block reading for more. Backpressure needs no mechanism of
// its own: a loop blocked writing to a client that is not draining its
// responses is not reading the socket, which pushes back on the client
// through TCP flow control, and the accept cap bounds concurrent
// connections. Graceful shutdown stops reading new requests
// but answers every request fully read before it, so a draining server
// never loses an in-flight response. See docs/SERVING.md for the
// protocol specification and the backpressure model.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"hybrids/internal/core"
	"hybrids/internal/hds"
)

// Protocol operation codes (the request frame's op byte). The five data
// operations map 1:1 onto hds.Kind; OpStats is served by the server
// itself from its own counters.
const (
	OpGet    uint8 = 1 // hds.Read: value lookup
	OpPut    uint8 = 2 // hds.Insert: insert if absent
	OpUpdate uint8 = 3 // hds.Update: overwrite if present
	OpDelete uint8 = 4 // hds.Remove: delete if present
	OpScan   uint8 = 5 // hds.Scan: up to Value pairs from Key upward
	OpStats  uint8 = 6 // server-side metrics snapshot (text payload)
)

// Response status codes (the response frame's status byte).
const (
	// StatusOK: the operation was applied and reported success.
	StatusOK uint8 = 0
	// StatusMiss: the operation was applied but reported failure — a GET
	// or DELETE of an absent key, a PUT of a present one. The store was
	// consulted; this is a legitimate outcome, not an error.
	StatusMiss uint8 = 1
	// StatusRejected: the server is shutting down and the operation never
	// reached a store. Clients may retry elsewhere.
	StatusRejected uint8 = 2
	// StatusBadRequest: the frame was well-formed but the request is not
	// servable (unknown op, key outside the map's key space).
	StatusBadRequest uint8 = 3
)

// Request is one decoded client request frame.
type Request struct {
	// Op is the protocol operation code.
	Op uint8
	// Key is the operation's key (SCAN: inclusive start, 0 allowed).
	Key uint64
	// Value is PUT/UPDATE's payload and SCAN's maximum pair count.
	Value uint64
}

// Pair is one key-value pair of a SCAN response: the core runtime's own
// pair type, so a scan result is encoded without a copy.
type Pair = core.KV

// Response is one decoded server response frame. Which payload fields are
// meaningful depends on the request's op: scalar operations carry Value,
// SCAN carries Pairs, STATS carries Stats.
type Response struct {
	// Status is the response status code.
	Status uint8
	// Value is the read value (GET) or visited-pair count (per-partition
	// Scan calls); zero otherwise.
	Value uint64
	// Pairs is the SCAN result in ascending key order.
	Pairs []Pair
	// Stats is the STATS text payload ("name value" lines, sorted).
	Stats []byte
}

// Wire geometry. Every frame is a big-endian uint32 byte length followed
// by that many payload bytes; request payloads are exactly reqBody bytes.
const (
	lenBytes     = 4
	reqBody      = 1 + 8 + 8 // op, key, value
	reqFrame     = lenBytes + reqBody
	maxRespFrame = 1 << 26 // decoder sanity bound, far above any real response
)

// opKinds and kindOps map the five data operation codes to their hds.Kind
// and back.
var (
	opKinds = [...]hds.Kind{OpGet: hds.Read, OpPut: hds.Insert, OpUpdate: hds.Update, OpDelete: hds.Remove, OpScan: hds.Scan}
	kindOps = [...]uint8{hds.Read: OpGet, hds.Update: OpUpdate, hds.Insert: OpPut, hds.Remove: OpDelete, hds.Scan: OpScan}
)

// kindOf maps a data operation code to its hds.Kind. ok is false for
// OpStats and unknown codes, which have no hds equivalent.
func kindOf(op uint8) (hds.Kind, bool) {
	if op < OpGet || op > OpScan {
		return 0, false
	}
	return opKinds[op], true
}

// OpOf returns the protocol operation code of a data operation kind
// (hds.Read through hds.Scan).
func OpOf(k hds.Kind) uint8 { return kindOps[k] }

// AppendRequest appends r's wire frame to buf and returns the extended
// slice.
func AppendRequest(buf []byte, r Request) []byte {
	buf = binary.BigEndian.AppendUint32(buf, reqBody)
	buf = append(buf, r.Op)
	buf = binary.BigEndian.AppendUint64(buf, r.Key)
	buf = binary.BigEndian.AppendUint64(buf, r.Value)
	return buf
}

// readRequests waits until br holds one whole request frame, then appends
// every whole frame br holds, up to window, to reqs, decoding each where it
// lies in br's buffer. A length word other than the request body size is
// a framing error: the stream cannot be resynchronized, so the frames
// before it are returned with the error and the connection closes once
// they are answered.
func readRequests(br *bufio.Reader, reqs []Request, window int) ([]Request, error) {
	if _, err := br.Peek(reqFrame); err != nil {
		return reqs, err
	}
	// Peek and Discard within the buffered bytes cannot fail.
	buf, _ := br.Peek(min(br.Buffered()/reqFrame, window) * reqFrame)
	for n := 0; n < len(buf); n += reqFrame {
		if l := binary.BigEndian.Uint32(buf[n:]); l != reqBody {
			br.Discard(n)
			return reqs, fmt.Errorf("server: request frame length %d, want %d", l, reqBody)
		}
		f := buf[n+lenBytes:]
		reqs = append(reqs, Request{Op: f[0], Key: binary.BigEndian.Uint64(f[1:]), Value: binary.BigEndian.Uint64(f[9:])})
	}
	br.Discard(len(buf))
	return reqs, nil
}

// AppendScalarResponse appends a scalar (GET/PUT/UPDATE/DELETE) response
// frame: status byte plus a uint64 value.
func AppendScalarResponse(buf []byte, status uint8, value uint64) []byte {
	buf = binary.BigEndian.AppendUint32(buf, 1+8)
	buf = append(buf, status)
	return binary.BigEndian.AppendUint64(buf, value)
}

// AppendScanResponse appends a SCAN response frame: status byte, a uint32
// pair count, then count (key, value) pairs.
func AppendScanResponse(buf []byte, status uint8, pairs []Pair) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+4+16*len(pairs)))
	buf = append(buf, status)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(pairs)))
	for _, p := range pairs {
		buf = binary.BigEndian.AppendUint64(buf, p.Key)
		buf = binary.BigEndian.AppendUint64(buf, p.Value)
	}
	return buf
}

// AppendStatsResponse appends a STATS response frame: status byte plus
// the snapshot text.
func AppendStatsResponse(buf []byte, status uint8, text []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+len(text)))
	buf = append(buf, status)
	return append(buf, text...)
}

// ReadResponseBuf reads one response frame, decoding the payload by op,
// the code of the request it answers (responses arrive in request order).
// scratch (may be nil) holds the frame payload and is returned, grown as
// needed, for the next call, so scalar responses decode with no
// allocation. SCAN pairs come from the decode pool: the caller owns them
// and may release them with PutPairs. STATS text is copied.
func ReadResponseBuf(r io.Reader, op uint8, scratch []byte) (Response, []byte, error) {
	if cap(scratch) < lenBytes {
		scratch = make([]byte, 0, 512)
	}
	hdr := scratch[:lenBytes]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Response{}, scratch, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < 1 || n > maxRespFrame {
		return Response{}, scratch, fmt.Errorf("server: response frame length %d out of range", n)
	}
	if uint32(cap(scratch)) < n {
		scratch = make([]byte, 0, n)
	}
	body := scratch[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return Response{}, scratch, err
	}
	resp := Response{Status: body[0]}
	body = body[1:]
	switch op {
	case OpScan:
		if len(body) < 4 {
			return Response{}, scratch, fmt.Errorf("server: scan response truncated (%d bytes)", len(body))
		}
		count := binary.BigEndian.Uint32(body)
		body = body[4:]
		if uint64(len(body)) != uint64(count)*16 {
			return Response{}, scratch, fmt.Errorf("server: scan response %d pairs but %d payload bytes", count, len(body))
		}
		out := pairPool.get(int(count))[:count]
		for i := range out {
			out[i].Key = binary.BigEndian.Uint64(body[16*i:])
			out[i].Value = binary.BigEndian.Uint64(body[16*i+8:])
		}
		resp.Pairs = out
	case OpStats:
		resp.Stats = append([]byte(nil), body...)
	default:
		if len(body) != 8 {
			return Response{}, scratch, fmt.Errorf("server: scalar response body %d bytes, want 8", len(body))
		}
		resp.Value = binary.BigEndian.Uint64(body)
	}
	return resp, scratch, nil
}
