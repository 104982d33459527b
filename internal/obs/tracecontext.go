package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"
)

// This file is the causal-ID half of distributed tracing: a TraceContext
// names one request across process boundaries (the 128-bit trace ID), one
// hop within it (the 64-bit span ID), and whether the head of the trace
// elected to sample it. The wire form is the W3C Trace Context `traceparent`
// header — `00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>` — so the
// IDs this repo mints interoperate with any standard tracing stack.
//
// TraceContext is a small value type: minting, deriving a child, and
// encoding stay off the heap except for the strings a caller explicitly
// asks for (Traceparent, TraceIDString), which only sampled requests pay.

// TraceparentHeader is the W3C Trace Context request/response header name.
// (Header names are case-insensitive; this is the canonical lowercase form
// the spec uses.)
const TraceparentHeader = "traceparent"

// FlagSampled is the traceparent trace-flags bit meaning "the caller
// sampled this trace" — the head-sampling decision, propagated so every
// process on the path keeps the same traces without coordination.
const FlagSampled byte = 0x01

// TraceContext identifies one hop of one distributed request.
type TraceContext struct {
	// TraceID is the 128-bit request identity, shared by every process the
	// request touches. All-zero is invalid per the W3C spec.
	TraceID [16]byte
	// SpanID is this hop's 64-bit identity (the header's parent-id field:
	// what a downstream callee will record as its parent). All-zero is
	// invalid.
	SpanID [8]byte
	// Flags is the trace-flags byte (bit 0: sampled).
	Flags byte
}

// NewTraceContext mints a context with random trace and span IDs and no
// flags set. Entropy failure falls back to a time-derived ID: tracing is
// telemetry, never a reason to refuse a request.
func NewTraceContext() TraceContext {
	var tc TraceContext
	var buf [24]byte
	if _, err := rand.Read(buf[:]); err != nil {
		binary.BigEndian.PutUint64(buf[0:8], uint64(time.Now().UnixNano()))
		binary.BigEndian.PutUint64(buf[8:16], uint64(time.Now().UnixNano())^0x9e3779b97f4a7c15)
		binary.BigEndian.PutUint64(buf[16:24], uint64(time.Now().UnixNano())*0x2545f4914f6cdd1d|1)
	}
	copy(tc.TraceID[:], buf[:16])
	copy(tc.SpanID[:], buf[16:24])
	// Guarantee validity even against an astronomically unlucky zero draw.
	if tc.TraceID == ([16]byte{}) {
		tc.TraceID[15] = 1
	}
	if tc.SpanID == ([8]byte{}) {
		tc.SpanID[7] = 1
	}
	return tc
}

// Child derives the context for a new hop of the same trace: the trace ID
// and flags carry over, the span ID is fresh. A server receiving a
// traceparent calls this so its own span has an identity distinct from the
// caller's.
func (tc TraceContext) Child() TraceContext {
	c := NewTraceContext()
	c.TraceID = tc.TraceID
	c.Flags = tc.Flags
	return c
}

// Valid reports whether both IDs are non-zero (the W3C validity rule).
func (tc TraceContext) Valid() bool {
	return tc.TraceID != ([16]byte{}) && tc.SpanID != ([8]byte{})
}

// Sampled reports the sampled flag.
func (tc TraceContext) Sampled() bool { return tc.Flags&FlagSampled != 0 }

// WithSampled returns a copy with the sampled flag set or cleared.
func (tc TraceContext) WithSampled(on bool) TraceContext {
	if on {
		tc.Flags |= FlagSampled
	} else {
		tc.Flags &^= FlagSampled
	}
	return tc
}

// randUint64 reduces the trace ID to 64 uniform bits (its low half; the IDs
// this repo mints are fully random). The Sampler's head decision hashes on
// it, so the decision is a deterministic function of the trace ID — every
// process sampling at the same probability keeps the same traces.
func (tc TraceContext) randUint64() uint64 {
	return binary.BigEndian.Uint64(tc.TraceID[8:16])
}

// TraceIDString renders the trace ID as 32 lowercase hex digits.
func (tc TraceContext) TraceIDString() string { return hex.EncodeToString(tc.TraceID[:]) }

// SpanIDString renders the span ID as 16 lowercase hex digits.
func (tc TraceContext) SpanIDString() string { return hex.EncodeToString(tc.SpanID[:]) }

// Traceparent encodes the context as a W3C traceparent header value,
// version 00.
func (tc TraceContext) Traceparent() string {
	var buf [55]byte
	const hexdigits = "0123456789abcdef"
	buf[0], buf[1], buf[2] = '0', '0', '-'
	hex.Encode(buf[3:35], tc.TraceID[:])
	buf[35] = '-'
	hex.Encode(buf[36:52], tc.SpanID[:])
	buf[52] = '-'
	buf[53] = hexdigits[tc.Flags>>4]
	buf[54] = hexdigits[tc.Flags&0xf]
	return string(buf[:])
}

// ParseTraceparent decodes a W3C traceparent header value. Per the spec's
// forward-compatibility rule, any version except the reserved "ff" is
// accepted as long as the version-00 fixed-length layout parses and both
// IDs are non-zero. Every field must be lowercase hex, as the spec defines
// it, so an accepted header re-encodes to the same trace ID string.
func ParseTraceparent(s string) (TraceContext, error) {
	var tc TraceContext
	if len(s) < 55 {
		return tc, fmt.Errorf("obs: traceparent %q: want at least 55 chars (00-traceid-parentid-flags)", s)
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return tc, fmt.Errorf("obs: traceparent %q: malformed field separators", s)
	}
	var ver [1]byte
	if err := decodeLowerHex(ver[:], s[0:2]); err != nil {
		return tc, fmt.Errorf("obs: traceparent %q: bad version: %w", s, err)
	}
	if ver[0] == 0xff {
		return tc, fmt.Errorf("obs: traceparent %q: version ff is reserved", s)
	}
	if ver[0] == 0 && len(s) != 55 {
		return tc, fmt.Errorf("obs: traceparent %q: version 00 must be exactly 55 chars", s)
	}
	if err := decodeLowerHex(tc.TraceID[:], s[3:35]); err != nil {
		return tc, fmt.Errorf("obs: traceparent %q: bad trace-id: %w", s, err)
	}
	if err := decodeLowerHex(tc.SpanID[:], s[36:52]); err != nil {
		return tc, fmt.Errorf("obs: traceparent %q: bad parent-id: %w", s, err)
	}
	var flags [1]byte
	if err := decodeLowerHex(flags[:], s[53:55]); err != nil {
		return tc, fmt.Errorf("obs: traceparent %q: bad flags: %w", s, err)
	}
	tc.Flags = flags[0]
	if !tc.Valid() {
		return TraceContext{}, fmt.Errorf("obs: traceparent %q: all-zero trace-id or parent-id", s)
	}
	return tc, nil
}

// lowerHexTable maps each lowercase hex digit to its value and every other
// byte, uppercase digits included, to 0xff.
const (
	ffRow         = "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"
	lowerHexTable = ffRow + ffRow + ffRow +
		"\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\xff\xff\xff\xff\xff\xff" + // '0'-'9'
		ffRow + ffRow +
		"\xff\x0a\x0b\x0c\x0d\x0e\x0f\xff\xff\xff\xff\xff\xff\xff\xff\xff" + // 'a'-'f'
		ffRow + ffRow + ffRow + ffRow + ffRow + ffRow + ffRow + ffRow + ffRow
)

// decodeLowerHex decodes src, which holds 2·len(dst) characters, into dst,
// refusing the uppercase digits that hex.Decode would accept. It keeps
// hex.Decode's table-driven loop, so parsing costs no more.
func decodeLowerHex(dst []byte, src string) error {
	for i, j := 0, 1; j < len(src); i, j = i+1, j+2 {
		hi, lo := lowerHexTable[src[j-1]], lowerHexTable[src[j]]
		if hi > 0x0f || lo > 0x0f {
			return fmt.Errorf("%q is not lowercase hex", src)
		}
		dst[i] = hi<<4 | lo
	}
	return nil
}
