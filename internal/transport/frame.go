package transport

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
)

// inlineThreshold is the part size below which a frame part is copied
// into the writer's staging buffer instead of referenced as its own
// scatter-gather entry. Small parts (headers, names, trapdoors) coalesce
// into one contiguous region; large payloads (result groups, index
// sections) are referenced in place and never copied on their way to
// the kernel.
const inlineThreshold = 1024

// frameWriter assembles one or more length-prefixed frames as a
// scatter-gather vector over a reusable staging buffer, then ships them
// with a single net.Buffers write — one writev on TCP and unix sockets.
// All scratch is retained across pool checkouts, so steady-state frame
// writes cost no heap allocation.
//
// Usage: reset, then per frame beginFrame, stage*/ref* in wire order,
// endFrame, and one flushAll for the whole group — k responses leave in
// one vectored write instead of k. A frameWriter is not safe for
// concurrent use; pool instances with getFrameWriter/putFrameWriter and
// keep the connection's writes single-threaded across the
// reset..flushAll sequence.
type frameWriter struct {
	buf []byte // staging: per frame, a 4-byte length prefix then inlined parts
	// marks[i] is the staging offset at which zero-copy part refs[i] is
	// spliced into the frame (offsets never move: splices only record
	// positions, so staging appends may reallocate buf freely).
	marks []int
	refs  [][]byte
	vecs  net.Buffers // flush scratch

	frameStart int // staging offset of the current frame's length prefix
	frameRefs  int // len(refs) when the current frame began
}

var frameWriterPool = sync.Pool{New: func() any { return new(frameWriter) }}

// getFrameWriter returns a pooled frameWriter, ready for reset.
func getFrameWriter() *frameWriter { return frameWriterPool.Get().(*frameWriter) }

// putFrameWriter returns fw to the pool, dropping references to caller
// payloads (the staging buffer's capacity is kept).
func putFrameWriter(fw *frameWriter) {
	for i := range fw.refs {
		fw.refs[i] = nil
	}
	for i := range fw.vecs {
		fw.vecs[i] = nil
	}
	fw.buf, fw.marks, fw.refs, fw.vecs = fw.buf[:0], fw.marks[:0], fw.refs[:0], fw.vecs[:0]
	frameWriterPool.Put(fw)
}

// reset clears all staged frames.
func (fw *frameWriter) reset() {
	fw.buf = fw.buf[:0]
	fw.marks = fw.marks[:0]
	fw.refs = fw.refs[:0]
	fw.frameStart = 0
	fw.frameRefs = 0
}

// beginFrame starts the next frame of a coalesced group, reserving its
// length prefix.
func (fw *frameWriter) beginFrame() {
	fw.frameStart = len(fw.buf)
	fw.frameRefs = len(fw.refs)
	fw.buf = append(fw.buf, 0, 0, 0, 0)
}

// endFrame patches the current frame's length prefix. An oversized
// frame is rolled back — the staging buffer and splice records return
// to the frame's start, leaving the group's earlier frames intact — and
// ErrFrameTooLarge is returned so the caller can stage a substitute.
func (fw *frameWriter) endFrame() error {
	n := len(fw.buf) - fw.frameStart - 4
	for _, p := range fw.refs[fw.frameRefs:] {
		n += len(p)
	}
	if n > MaxFrame {
		fw.buf = fw.buf[:fw.frameStart]
		fw.marks = fw.marks[:fw.frameRefs]
		fw.refs = fw.refs[:fw.frameRefs]
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(fw.buf[fw.frameStart:], uint32(n))
	return nil
}

// stage copies p into the frame's staging buffer.
func (fw *frameWriter) stage(p []byte) { fw.buf = append(fw.buf, p...) }

// stageString is stage for string data (no []byte conversion alloc).
func (fw *frameWriter) stageString(s string) { fw.buf = append(fw.buf, s...) }

// stageByte appends one staged byte.
func (fw *frameWriter) stageByte(b byte) { fw.buf = append(fw.buf, b) }

// stageUint32 appends one staged big-endian uint32.
func (fw *frameWriter) stageUint32(v uint32) {
	fw.buf = binary.BigEndian.AppendUint32(fw.buf, v)
}

// ref splices p into the frame. Large parts are referenced zero-copy —
// the caller must keep p unchanged until flushAll returns — small ones are
// staged like stage.
func (fw *frameWriter) ref(p []byte) {
	if len(p) < inlineThreshold {
		fw.stage(p)
		return
	}
	fw.marks = append(fw.marks, len(fw.buf))
	fw.refs = append(fw.refs, p)
}

// flushAll writes every staged frame of a coalesced group with one
// vectored write. Frames must all have been closed with endFrame.
func (fw *frameWriter) flushAll(w io.Writer) error {
	if len(fw.refs) == 0 {
		_, err := w.Write(fw.buf)
		return err
	}
	fw.vecs = fw.vecs[:0]
	prev := 0
	for i, m := range fw.marks {
		if m > prev {
			fw.vecs = append(fw.vecs, fw.buf[prev:m:m])
		}
		fw.vecs = append(fw.vecs, fw.refs[i])
		prev = m
	}
	if len(fw.buf) > prev {
		fw.vecs = append(fw.vecs, fw.buf[prev:])
	}
	// WriteTo consumes the vector in place; fw.vecs is reset by the next
	// flushAll/put, and entry 0 always holds the staged length prefix, so
	// nothing the caller owns is clobbered beyond being sliced forward.
	v := fw.vecs
	_, err := v.WriteTo(w)
	return err
}

// bodyPool recycles server-side frame bodies: each request's body, and
// the buffer its search or fetch-many answer is encoded into. Both are
// safe to recycle once the response is written: parseRequest copies the
// name, every handler copies what it keeps (trapdoor tokens, update
// payloads), and an answer encoded into the pooled buffer is a copy of
// what the index holds. Client-side *response* bodies are NOT pooled —
// result items and fetched ciphertexts alias them all the way up to the
// caller.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// frameGrowStep is the most body a frame header is trusted for before
// any of it has arrived.
const frameGrowStep = 1 << 20

// readFrameInto reads one frame body into buf, returning the filled
// slice. A buf with the capacity is used as is; otherwise the buffer is
// sized by what arrives, not by what the header announces: frameGrowStep
// first (buf itself, if it holds that much), then doubling as each
// fills, up to the announced length. Four bytes from any peer therefore pin at most frameGrowStep,
// and a frame that stops short has cost at most twice the bytes it did
// send; a frame up to frameGrowStep is one allocation and one read, as
// if the header had been believed.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	announced := binary.BigEndian.Uint32(hdr[:])
	if announced > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	n := int(announced)
	if first := min(n, frameGrowStep); cap(buf) < first {
		buf = make([]byte, 0, first)
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		got := len(buf)
		buf = buf[:min(n, cap(buf))]
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF // the stream ended inside the body, at a step boundary
			}
			return nil, err
		}
	}
	return buf, nil
}
