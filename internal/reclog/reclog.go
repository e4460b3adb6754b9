// Package reclog is the record container under the master event log
// (BMEL, internal/master), a run's one binary record:
//
//	magic (4 bytes) | version u8 | format header | fixed-width records
//
// The format encodes and decodes its own header and record fields. A
// federated run adds one migrant log per island, which is wire frames
// (internal/federation), not a container. The package imports nothing
// from the repo.
package reclog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// Stream is the declared record count of a log whose records run to
// EOF (a streaming writer cannot know the count up front). Only such a
// log may end in a torn tail: a short trailing record, which a crash
// mid-write leaves behind and a reader drops.
const Stream = ^uint64(0)

// Format names one log format.
type Format struct {
	Name    string // error prefix, e.g. "master: event log"
	Magic   string // 4 bytes
	Version byte   // what NewWriter stamps; NewReader accepts 1..Version
}

// Reader decodes one log: Header calls in the format's order, then one
// Records call. The first error sticks — later Header calls return
// zeroes — and Records reports it, so a format checks once.
type Reader struct {
	name    string
	br      *bufio.Reader
	err     error
	version byte
}

// NewReader checks r's magic and version (1..Version). It buffers r,
// so an *os.File costs one read per buffer, not per record.
func (f Format) NewReader(r io.Reader) *Reader {
	rd := &Reader{name: f.Name, br: bufio.NewReader(r)}
	pre := rd.Header(len(f.Magic) + 1)
	magic, v := pre[:len(f.Magic)], pre[len(f.Magic)]
	switch {
	case rd.err != nil:
	case string(magic) != f.Magic:
		rd.err = fmt.Errorf("%s: bad magic %q, want %q", f.Name, magic, f.Magic)
	case v == 0 || v > f.Version:
		rd.err = fmt.Errorf("%s: version %d, want 1..%d", f.Name, v, f.Version)
	}
	rd.version = v
	return rd
}

// Version returns the version the log declares.
func (rd *Reader) Version() byte { return rd.version }

// Header returns the next n header bytes.
func (rd *Reader) Header(n int) []byte {
	buf := make([]byte, n)
	if rd.err != nil {
		return buf
	}
	if _, err := io.ReadFull(rd.br, buf); err != nil {
		rd.err = fmt.Errorf("%s: short header: %w", rd.name, err)
		clear(buf)
	}
	return buf
}

// Err returns the sticky header error, if any.
func (rd *Reader) Err() error { return rd.err }

// Records reads what follows the header: count records of width bytes
// (Stream = until EOF, torn tail dropped), each decoded by dec. A
// declared count must be met exactly, and reserves at most 65 536
// records up front — a corrupt header cannot allocate gigabytes before
// the first record is read. An error in the records (one dec rejects, a
// counted log cut short, a failed read) returns the records before it
// with the error: the longest readable prefix.
func Records[R any](rd *Reader, width int, count uint64, dec func(rec []byte) (R, error)) ([]R, error) {
	if rd.err != nil {
		return nil, rd.err
	}
	var out []R
	if count != Stream {
		out = make([]R, 0, min(count, 1<<16))
	}
	rec := make([]byte, width)
	for i := uint64(0); i != count; i++ {
		if _, err := io.ReadFull(rd.br, rec); err != nil {
			eof := errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
			if eof && count == Stream {
				break // the log ends wherever its writer stopped
			}
			if eof {
				return out, fmt.Errorf("%s: truncated at record %d/%d: %w", rd.name, i, count, err)
			}
			return out, fmt.Errorf("%s: reading record %d: %w", rd.name, i, err)
		}
		r, err := dec(rec)
		if err != nil {
			return out, fmt.Errorf("%s: record %d: %w", rd.name, i, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Writer streams one log: exactly one Write on the underlying writer
// per record, unbuffered, so a caller appending to a file gets
// record-granular durability and a crash costs at most a torn tail.
// After a write error every later call returns that error.
type Writer[R any] struct {
	name string
	w    io.Writer
	enc  func(dst []byte, r R) []byte
	buf  []byte
	err  error
}

// NewWriter writes magic, version and the format's header bytes in one
// Write and returns a writer whose records enc encodes.
func NewWriter[R any](f Format, w io.Writer, header []byte, enc func(dst []byte, r R) []byte) (*Writer[R], error) {
	wr := ResumeWriter(f, w, enc)
	if wr.write(append(append([]byte(f.Magic), f.Version), header...)); wr.err != nil {
		return nil, wr.err
	}
	return wr, nil
}

// ResumeWriter returns a Writer appending records to an existing
// streamed log without a fresh header. The caller has positioned w at
// the end of the last complete record.
func ResumeWriter[R any](f Format, w io.Writer, enc func(dst []byte, r R) []byte) *Writer[R] {
	return &Writer[R]{name: f.Name, w: w, enc: enc}
}

func (wr *Writer[R]) write(b []byte) {
	if wr.err == nil {
		if _, err := wr.w.Write(b); err != nil {
			wr.err = fmt.Errorf("%s: write: %w", wr.name, err)
		}
	}
}

// Record appends one record.
func (wr *Writer[R]) Record(r R) error {
	wr.buf = wr.enc(wr.buf[:0], r)
	wr.write(wr.buf)
	return wr.err
}

// Err returns the first write error, if any.
func (wr *Writer[R]) Err() error { return wr.err }

// WriteAll serializes a finished log through a buffer and returns the
// bytes written.
func WriteAll[R any](f Format, w io.Writer, header []byte, recs []R, enc func(dst []byte, r R) []byte) (int64, error) {
	bw := bufio.NewWriter(w)
	wr, err := NewWriter(f, bw, header, enc)
	if err != nil {
		return 0, err
	}
	n := int64(len(f.Magic) + 1 + len(header))
	for _, r := range recs {
		if err := wr.Record(r); err != nil {
			return 0, err
		}
		n += int64(len(wr.buf))
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("%s: write: %w", f.Name, err)
	}
	return n, nil
}
