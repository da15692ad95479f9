// Package rpc is the stdlib-only wire protocol between the serving
// coordinator and its worker fleet: a length-prefixed binary framing layer on
// TCP with streaming responses, per-job cancellation and a version-checked
// handshake.
//
// The paper's Fig-6 finding — a serial host-side data path caps multi-GPU
// scaling — reappears at the serving layer as soon as one process owns every
// replica: the coordinator's data path must ship batches to worker processes
// without becoming the new serial bottleneck. The protocol is therefore
// deliberately austere: one fixed 18-byte header, little-endian integers,
// float64 bit patterns (so predictions survive the wire bit-identically), and
// no per-frame allocations beyond the payload itself.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "GNNR"
//	4       1     frame type
//	5       1     reserved, must be zero
//	6       8     job id (0 when the frame is not job-scoped)
//	14      4     payload length
//	18      n     payload
//
// A conversation is client-speaks-first: the coordinator sends Hello{version}
// and the worker answers Welcome{version, max pods, model checkpoint hash,
// worker id} or Refuse{message} — a version or checkpoint mismatch is a clean,
// human-readable refusal, never a silently wrong prediction. After the
// handshake the coordinator sends Job frames (a batch of graphs under one job
// id, led by the job's trace context) and Cancel frames; the worker streams
// back one Row frame per graph, then its completed span records in a Spans
// frame (so the coordinator can stitch the worker's timeline under its own),
// followed by JobDone, or JobErr (carrying a code so "at pod capacity" is
// distinguishable from "forward pass failed"). Ping/Pong carry the health
// check, with the job-id field doubling as the sequence number.
//
// Every length field is validated against a hard cap before a single
// dependent allocation happens, so a truncated, corrupt or adversarial peer
// costs an error, not memory.
package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ProtocolVersion is the wire protocol revision this build speaks. Peers with
// different versions must refuse each other during the handshake.
//
// Version history:
//
//	1  initial frame set (Hello..Pong)
//	2  Job payloads carry a leading trace context (trace id + parent span
//	   id); workers ship completed span records back in a Spans frame
const ProtocolVersion = 2

// Frame types.
const (
	// FrameHello opens a connection: client → worker, payload Hello.
	FrameHello uint8 = 1
	// FrameWelcome accepts a Hello: worker → client, payload Welcome.
	FrameWelcome uint8 = 2
	// FrameRefuse rejects a Hello (version/configuration mismatch): worker →
	// client, payload Refuse. The worker closes the connection after sending.
	FrameRefuse uint8 = 3
	// FrameJob carries one batch of graphs to predict: client → worker,
	// payload Job, job id set.
	FrameJob uint8 = 4
	// FrameRow streams one graph's prediction back: worker → client, payload
	// Row, job id set.
	FrameRow uint8 = 5
	// FrameJobDone closes a job's row stream: worker → client, payload
	// JobDone, job id set.
	FrameJobDone uint8 = 6
	// FrameJobErr aborts a job with an error: worker → client, payload
	// JobErr, job id set.
	FrameJobErr uint8 = 7
	// FrameCancel withdraws a job: client → worker, no payload, job id set.
	FrameCancel uint8 = 8
	// FramePing is a health probe: client → worker, no payload; the job id
	// field carries the probe sequence number.
	FramePing uint8 = 9
	// FramePong answers a Ping: worker → client, payload Pong, job id echoes
	// the probe sequence number.
	FramePong uint8 = 10
	// FrameSpans ships a job's completed span records back for trace
	// stitching: worker → client, payload Spans, job id set. Sent after the
	// job's rows and before its JobDone, so the coordinator's job state is
	// still alive when the spans arrive.
	FrameSpans uint8 = 11
)

// HeaderLen is the fixed frame header size in bytes.
const HeaderLen = 18

// MaxPayload caps one frame's payload. A frame header claiming more is a
// protocol error, rejected before any payload allocation.
const MaxPayload = 64 << 20

var frameMagic = [4]byte{'G', 'N', 'N', 'R'}

// Protocol errors.
var (
	// ErrBadMagic reports a frame that does not start with the protocol magic.
	ErrBadMagic = errors.New("rpc: bad frame magic")
	// ErrFrameTooLarge reports a frame whose length field exceeds MaxPayload.
	ErrFrameTooLarge = errors.New("rpc: frame exceeds payload cap")
	// ErrTruncated reports a frame or payload that ends before its declared
	// length.
	ErrTruncated = errors.New("rpc: truncated frame")
	// ErrBadFrame wraps structural payload decoding failures.
	ErrBadFrame = errors.New("rpc: malformed frame")
)

// Frame is one protocol frame.
type Frame struct {
	// Type is one of the Frame* constants.
	Type uint8
	// Job is the job id for job-scoped frames (Job, Row, JobDone, JobErr,
	// Cancel) and the probe sequence number for Ping/Pong; zero otherwise.
	Job uint64
	// Payload is the frame body; see the per-type payload codecs.
	Payload []byte
}

// validType reports whether t is a defined frame type.
func validType(t uint8) bool { return t >= FrameHello && t <= FrameSpans }

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice. It errors on an unknown type or an oversized payload.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if !validType(f.Type) {
		return dst, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, f.Type)
	}
	if len(f.Payload) > MaxPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f.Payload))
	}
	dst = append(dst, frameMagic[:]...)
	dst = append(dst, f.Type, 0)
	dst = binary.LittleEndian.AppendUint64(dst, f.Job)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	return append(dst, f.Payload...), nil
}

// parseHeader validates an 18-byte header and returns the type, job id and
// declared payload length.
func parseHeader(hdr []byte) (typ uint8, job uint64, n int, err error) {
	if !bytes.Equal(hdr[:4], frameMagic[:]) {
		return 0, 0, 0, ErrBadMagic
	}
	typ = hdr[4]
	if !validType(typ) {
		return 0, 0, 0, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, typ)
	}
	if hdr[5] != 0 {
		return 0, 0, 0, fmt.Errorf("%w: reserved byte %#x", ErrBadFrame, hdr[5])
	}
	job = binary.LittleEndian.Uint64(hdr[6:])
	length := binary.LittleEndian.Uint32(hdr[14:])
	if length > MaxPayload {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, length)
	}
	return typ, job, int(length), nil
}

// DecodeFrame parses one frame from the front of data, returning the frame
// and the number of bytes consumed. The returned payload aliases data — copy
// it before the buffer is reused. Decoding never allocates.
//
//gnnvet:allow unreachable -- FuzzRPCDecodeFrame
func DecodeFrame(data []byte) (Frame, int, error) {
	if len(data) < HeaderLen {
		return Frame{}, 0, ErrTruncated
	}
	typ, job, n, err := parseHeader(data[:HeaderLen])
	if err != nil {
		return Frame{}, 0, err
	}
	if len(data) < HeaderLen+n {
		return Frame{}, 0, ErrTruncated
	}
	return Frame{Type: typ, Job: job, Payload: data[HeaderLen : HeaderLen+n]}, HeaderLen + n, nil
}

// ReadFrame reads one frame from r. The payload buffer is grown as bytes
// actually arrive, so a lying length field costs at most the bytes the peer
// really sent — never an up-front MaxPayload allocation.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, ErrTruncated
		}
		return Frame{}, err
	}
	typ, job, n, err := parseHeader(hdr[:])
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Type: typ, Job: job}
	if n == 0 {
		return f, nil
	}
	var buf bytes.Buffer
	got, err := buf.ReadFrom(io.LimitReader(r, int64(n)))
	if err != nil {
		return Frame{}, err
	}
	if got < int64(n) {
		return Frame{}, ErrTruncated
	}
	f.Payload = buf.Bytes()
	return f, nil
}

// WriteFrame writes f to w in one Write call (so concurrent writers
// serialized by a mutex cannot interleave partial frames).
func WriteFrame(w io.Writer, f Frame) error {
	buf, err := AppendFrame(make([]byte, 0, HeaderLen+len(f.Payload)), f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}
