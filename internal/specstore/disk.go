package specstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// diskMagic opens every entry file; the version digit guards format
// evolution (same discipline as internal/journal's segment magic).
const diskMagic = "SPECSTOR1\n"

// maxFrameBytes bounds a single frame payload; a larger claimed length
// is treated as corruption rather than attempted as an allocation.
const maxFrameBytes = 1 << 30

// diskHeader is the JSON header frame of an entry file: enough to
// rebuild the index without reading the (much larger) payload frame,
// and to detect a file that was renamed or cross-linked to the wrong
// key.
type diskHeader struct {
	Hash  string `json:"hash"`
	Model string `json:"model"`
	Pairs int    `json:"pairs"`
	Bytes int    `json:"bytes"` // payload frame length, for index stats
}

// Disk is the on-disk Store backend: one CRC-framed file per entry in a
// flat directory, written atomically (temp file + fsync + rename) so a
// crash mid-write leaves either the old entry or the new one, never a
// torn file under the live name. Damaged entries — torn frames, CRC
// mismatches, key mismatches — are quarantined (renamed aside with a
// ".quarantine" suffix) and reported as misses; the store never fails
// to open and never returns corrupt data.
//
// A Disk store assumes a single writing process per directory; a shared
// directory between instances is not supported.
type Disk struct {
	dir string

	mu    sync.Mutex
	index map[Key]diskIndexEntry
	stats Stats
}

type diskIndexEntry struct {
	pairs int
	file  string
}

// entryFile maps a key to its file name: a content hash of the key, so
// arbitrary fingerprint strings never meet the filesystem.
func entryFile(key Key) string {
	sum := sha256.Sum256([]byte(key.Hash + "\x00" + key.Model))
	return fmt.Sprintf("%x.spec", sum[:16])
}

// OpenDisk opens (creating if needed) a disk store rooted at dir and
// indexes its entries by reading each file's header frame. Entries
// whose header is damaged are quarantined, not fatal: a corrupt store
// degrades to a smaller store, it does not stop the daemon from
// booting.
func OpenDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("specstore: create dir: %w", err)
	}
	d := &Disk{dir: dir, index: make(map[Key]diskIndexEntry)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("specstore: read dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".spec") {
			continue
		}
		path := filepath.Join(dir, name)
		hdr, err := readHeader(path)
		if err != nil {
			d.quarantineLocked(name)
			continue
		}
		key := Key{Hash: hdr.Hash, Model: hdr.Model}
		if prev, ok := d.index[key]; ok && prev.pairs >= hdr.Pairs {
			continue
		}
		d.index[key] = diskIndexEntry{pairs: hdr.Pairs, file: name}
	}
	return d, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// readFrame reads one [len][crc][payload] frame from r, verifying the
// checksum.
func readFrame(r io.Reader) ([]byte, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("frame header: %w", err)
	}
	length := binary.LittleEndian.Uint32(head[0:4])
	sum := binary.LittleEndian.Uint32(head[4:8])
	if length > maxFrameBytes {
		return nil, fmt.Errorf("frame length %d exceeds bound", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("frame payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("frame checksum mismatch")
	}
	return payload, nil
}

// writeFrame appends one [len][crc][payload] frame to w.
func writeFrame(w io.Writer, payload []byte) error {
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readHeader parses just the magic and header frame of an entry file.
func readHeader(path string) (*diskHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	magic := make([]byte, len(diskMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != diskMagic {
		return nil, fmt.Errorf("bad magic")
	}
	payload, err := readFrame(f)
	if err != nil {
		return nil, err
	}
	var hdr diskHeader
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return nil, fmt.Errorf("header decode: %w", err)
	}
	if hdr.Pairs < 1 {
		return nil, fmt.Errorf("header pairs = %d", hdr.Pairs)
	}
	return &hdr, nil
}

// readEntry parses a whole entry file, verifying both frames.
func readEntry(path string) (*diskHeader, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	magic := make([]byte, len(diskMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != diskMagic {
		return nil, nil, fmt.Errorf("bad magic")
	}
	hp, err := readFrame(f)
	if err != nil {
		return nil, nil, err
	}
	var hdr diskHeader
	if err := json.Unmarshal(hp, &hdr); err != nil {
		return nil, nil, fmt.Errorf("header decode: %w", err)
	}
	data, err := readFrame(f)
	if err != nil {
		return nil, nil, err
	}
	// A trailing garbage byte after the frames means the file is not
	// what Put wrote; reject it with the same severity as a bad CRC.
	var one [1]byte
	if n, _ := f.Read(one[:]); n != 0 {
		return nil, nil, fmt.Errorf("trailing bytes after entry frames")
	}
	return &hdr, data, nil
}

// quarantineLocked moves a damaged entry file aside so it stops
// shadowing the key but remains available for forensics. Caller holds
// d.mu (or is in single-threaded Open).
func (d *Disk) quarantineLocked(file string) {
	src := filepath.Join(d.dir, file)
	dst := src + ".quarantine"
	if err := os.Rename(src, dst); err != nil {
		// Removal is the fallback: a corrupt entry must never be served
		// again, even if we cannot keep it for inspection.
		_ = os.Remove(src)
	}
	d.stats.Quarantined++
}

// Get implements Store. A damaged entry is quarantined and reported as
// a miss — the caller recomputes, and the bad bytes can never reach a
// client.
func (d *Disk) Get(key Key) (Entry, bool, error) {
	d.mu.Lock()
	ie, ok := d.index[key]
	d.mu.Unlock()
	if !ok {
		d.mu.Lock()
		d.stats.Misses++
		d.mu.Unlock()
		return Entry{}, false, nil
	}
	hdr, data, err := readEntry(filepath.Join(d.dir, ie.file))
	if err == nil && (hdr.Hash != key.Hash || hdr.Model != key.Model) {
		err = fmt.Errorf("entry file holds key %s/%s", hdr.Hash, hdr.Model)
	}
	if err != nil {
		d.mu.Lock()
		if cur, ok := d.index[key]; ok && cur.file == ie.file {
			delete(d.index, key)
			d.quarantineLocked(ie.file)
		}
		d.stats.Misses++
		d.mu.Unlock()
		return Entry{}, false, nil
	}
	d.mu.Lock()
	d.stats.Hits++
	d.mu.Unlock()
	return Entry{Pairs: hdr.Pairs, Data: data}, true, nil
}

// Put implements Store: atomic temp-file write, fsync, rename. A key's
// capacity only grows; a Put with fewer pairs than the stored entry is
// a counted no-op.
func (d *Disk) Put(key Key, e Entry) error {
	if e.Pairs < 1 {
		return fmt.Errorf("specstore: put %d pairs", e.Pairs)
	}
	d.mu.Lock()
	if ie, ok := d.index[key]; ok && ie.pairs >= e.Pairs {
		d.stats.SkippedPuts++
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()

	hdr, err := json.Marshal(diskHeader{Hash: key.Hash, Model: key.Model, Pairs: e.Pairs, Bytes: len(e.Data)})
	if err != nil {
		return fmt.Errorf("specstore: encode header: %w", err)
	}
	file := entryFile(key)
	tmp, err := os.CreateTemp(d.dir, file+".tmp-*")
	if err != nil {
		d.noteError()
		return fmt.Errorf("specstore: create temp: %w", err)
	}
	tmpName := tmp.Name()
	werr := func() error {
		if _, err := tmp.Write([]byte(diskMagic)); err != nil {
			return err
		}
		if err := writeFrame(tmp, hdr); err != nil {
			return err
		}
		if err := writeFrame(tmp, e.Data); err != nil {
			return err
		}
		return tmp.Sync()
	}()
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmpName, filepath.Join(d.dir, file))
	}
	if werr != nil {
		_ = os.Remove(tmpName)
		d.noteError()
		return fmt.Errorf("specstore: write entry: %w", werr)
	}
	d.syncDir()

	d.mu.Lock()
	// Re-check under the lock: a concurrent Put may have stored a larger
	// entry while we wrote; its file name is the same, so whichever
	// rename landed last owns the name — keep the larger capacity in the
	// index and let a future Get quarantine-and-miss if they disagree.
	if ie, ok := d.index[key]; !ok || e.Pairs >= ie.pairs {
		d.index[key] = diskIndexEntry{pairs: e.Pairs, file: file}
	}
	d.stats.Puts++
	d.mu.Unlock()
	return nil
}

// syncDir fsyncs the store directory so a rename survives power loss.
// Best-effort: not every platform supports directory fsync.
func (d *Disk) syncDir() {
	if f, err := os.Open(d.dir); err == nil {
		_ = f.Sync()
		_ = f.Close()
	}
}

func (d *Disk) noteError() {
	d.mu.Lock()
	d.stats.Errors++
	d.mu.Unlock()
}

// Len implements Store.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

// Stats implements Store.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.Entries = len(d.index)
	return s
}

// Close implements Store. Entries are already durable (every Put
// fsyncs); Close only drops the index.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.index = make(map[Key]diskIndexEntry)
	return nil
}
