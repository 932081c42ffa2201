package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"busprefetch/internal/memory"
)

// The binary trace format is a small, self-describing container so generated
// traces can be saved and replayed without regenerating the workload:
//
//	magic "BPTR" | version u8 | name len uvarint | name bytes
//	proc count uvarint
//	per stream: event count uvarint, then per event:
//	  kind u8 | gap uvarint | addr delta zigzag-varint (delta from previous
//	  addr in the stream, which compresses the strided accesses workloads
//	  produce)
//	crc32 (IEEE) of everything above, little-endian u32  [version >= 2]
//
// All integers are unsigned varints except the address delta, which is
// zigzag-encoded because strides run both directions.
//
// Version history:
//
//	1: initial format, no checksum.
//	2: appends a CRC32 footer covering every preceding byte, and Decode
//	   additionally rejects trailing garbage after the footer.
//
// Decode reads both versions and is safe on adversarial input: every count
// and length is bounded before allocation, unknown versions and kinds are
// errors, and a version-2 trace whose bytes were corrupted in storage or
// transit fails the CRC check with a diagnostic error. Decode never panics.

const (
	codecMagic   = "BPTR"
	codecVersion = 2

	// maxNameLen bounds the workload-name field.
	maxNameLen = 1 << 20
	// maxStreamEvents bounds one processor's event count. The cap exists so
	// a corrupt or hostile count cannot drive allocation; real traces are
	// orders of magnitude smaller.
	maxStreamEvents = 1 << 28
	// preallocEvents caps the capacity trusted from a declared event count;
	// larger streams grow as their bytes actually arrive, so a huge declared
	// count in a tiny file cannot allocate gigabytes.
	preallocEvents = 1 << 16
)

// crcWriter tees every written byte into a running CRC32. Write errors are
// sticky so the encoding helpers can stay unconditional; the first error
// surfaces at the end.
type crcWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
	err error
}

func (c *crcWriter) write(p []byte) {
	if c.err != nil {
		return
	}
	if _, err := c.w.Write(p); err != nil {
		c.err = err
		return
	}
	c.crc.Write(p) //nolint:errcheck // hash writes cannot fail
}

func (c *crcWriter) writeByte(b byte) { c.write([]byte{b}) }

func (c *crcWriter) writeUvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	c.write(buf[:n])
}

func (c *crcWriter) writeVarint(v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	c.write(buf[:n])
}

// Encode writes the trace to w in the binary trace format (version 2, with
// a CRC32 footer). Traces exceeding the format's hard limits are rejected
// rather than written unreadably.
func Encode(w io.Writer, t *Trace) error {
	if len(t.Name) > maxNameLen {
		return fmt.Errorf("trace: name of %d bytes exceeds the %d-byte limit", len(t.Name), maxNameLen)
	}
	if len(t.Streams) > memory.MaxProcs {
		return fmt.Errorf("trace: %d processors exceeds the %d-processor limit", len(t.Streams), memory.MaxProcs)
	}
	for p, s := range t.Streams {
		if len(s) > maxStreamEvents {
			return fmt.Errorf("trace: proc %d has %d events, limit %d", p, len(s), maxStreamEvents)
		}
	}
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw, crc: crc32.NewIEEE()}
	cw.write([]byte(codecMagic))
	cw.writeByte(codecVersion)
	cw.writeUvarint(uint64(len(t.Name)))
	cw.write([]byte(t.Name))
	cw.writeUvarint(uint64(len(t.Streams)))
	for _, s := range t.Streams {
		cw.writeUvarint(uint64(len(s)))
		prev := uint64(0)
		for _, e := range s {
			cw.writeByte(byte(e.Kind))
			cw.writeUvarint(uint64(e.Gap))
			delta := int64(uint64(e.Addr) - prev)
			cw.writeVarint(delta)
			prev = uint64(e.Addr)
		}
	}
	if cw.err != nil {
		return cw.err
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], cw.crc.Sum32())
	if _, err := bw.Write(foot[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// crcReader hashes exactly the bytes Decode consumes. It sits above the
// bufio.Reader, so buffered readahead never leaks into the hash — only what
// the decoder actually reads is covered, leaving the CRC footer outside.
type crcReader struct {
	br  *bufio.Reader
	crc hash.Hash32
	one [1]byte
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err != nil {
		return 0, err
	}
	c.one[0] = b
	c.crc.Write(c.one[:]) //nolint:errcheck // hash writes cannot fail
	return b, nil
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	if n > 0 {
		c.crc.Write(p[:n]) //nolint:errcheck // hash writes cannot fail
	}
	return n, err
}

// Decode reads a trace previously written by Encode. It accepts format
// versions 1 (no checksum) and 2 (CRC32 footer). Decode validates every
// count and length before allocating, so corrupt, truncated or adversarial
// input yields an error — never a panic or an out-of-memory crash.
func Decode(r io.Reader) (*Trace, error) {
	cr := &crcReader{br: bufio.NewReader(r), crc: crc32.NewIEEE()}
	magic := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("trace: bad magic %q (not a BPTR trace)", magic)
	}
	ver, err := cr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if ver < 1 || ver > codecVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (this build reads versions 1-%d)", ver, codecVersion)
	}
	nameLen, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds the %d-byte limit", nameLen, maxNameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(cr, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	procs, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("trace: reading processor count: %w", err)
	}
	if procs > memory.MaxProcs {
		return nil, fmt.Errorf("trace: %d processors exceeds the %d-processor limit", procs, memory.MaxProcs)
	}
	t := &Trace{Name: string(name), Streams: make([]Stream, procs)}
	for p := range t.Streams {
		n, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, fmt.Errorf("trace: proc %d: reading event count: %w", p, err)
		}
		if n > maxStreamEvents {
			return nil, fmt.Errorf("trace: proc %d declares %d events, limit %d", p, n, maxStreamEvents)
		}
		prealloc := n
		if prealloc > preallocEvents {
			prealloc = preallocEvents
		}
		s := make(Stream, 0, prealloc)
		prev := uint64(0)
		for i := uint64(0); i < n; i++ {
			kb, err := cr.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("trace: proc %d event %d: reading kind: %w", p, i, err)
			}
			if Kind(kb) >= numKinds {
				return nil, fmt.Errorf("trace: proc %d event %d: unknown kind %d", p, i, kb)
			}
			gap, err := binary.ReadUvarint(cr)
			if err != nil {
				return nil, fmt.Errorf("trace: proc %d event %d: reading gap: %w", p, i, err)
			}
			if gap > 1<<32-1 {
				return nil, fmt.Errorf("trace: proc %d event %d: gap %d overflows", p, i, gap)
			}
			delta, err := binary.ReadVarint(cr)
			if err != nil {
				return nil, fmt.Errorf("trace: proc %d event %d: reading address delta: %w", p, i, err)
			}
			prev += uint64(delta)
			s = append(s, Event{Kind: Kind(kb), Gap: uint32(gap), Addr: memory.Addr(prev)})
		}
		t.Streams[p] = s
	}
	if ver >= 2 {
		// The footer is read below the hasher so it does not hash itself.
		var foot [4]byte
		if _, err := io.ReadFull(cr.br, foot[:]); err != nil {
			return nil, fmt.Errorf("trace: reading CRC footer: %w", err)
		}
		want := binary.LittleEndian.Uint32(foot[:])
		if got := cr.crc.Sum32(); got != want {
			return nil, fmt.Errorf("trace: CRC mismatch: footer %08x, computed %08x (corrupt trace file)", want, got)
		}
		if _, err := cr.br.ReadByte(); err != io.EOF {
			return nil, fmt.Errorf("trace: trailing data after CRC footer")
		}
	}
	return t, nil
}
