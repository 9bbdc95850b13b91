package spectral

// This file is the wire/storage codec for Spectrum values: an exact
// binary encoding of the eigenpairs (bit-patterns of every float64 are
// preserved verbatim) used by the persistent spectrum store
// (internal/specstore) and by shard-routed peer lookups between
// spectrald instances. The clique-model graph inside a Spectrum is NOT
// encoded — it is a deterministic function of (netlist, model), so the
// decoder rebuilds it from the netlist the caller supplies. That keeps
// entries compact (O(n·d) floats, not O(n²) edges) and makes a decoded
// spectrum structurally identical to a freshly computed one.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
)

// specMagic opens every encoded spectrum; the version digit guards
// format evolution.
const specMagic = "SPECV1\n"

// EncodeSpectrum serializes sp into the binary interchange format:
//
//	"SPECV1\n"
//	uvarint modules
//	uvarint model
//	uvarint pairs
//	pairs   × 8B little-endian float64 bits (eigenvalues, ascending)
//	modules × pairs × 8B float64 bits (eigenvector matrix, row-major)
//
// The encoding is exact: DecodeSpectrum returns bit-identical
// eigenpairs.
func EncodeSpectrum(sp *Spectrum) ([]byte, error) {
	if sp == nil || sp.dec == nil {
		return nil, fmt.Errorf("spectral: encode nil spectrum")
	}
	n, pairs := sp.modules, sp.dec.D()
	vec := sp.dec.Vectors
	if vec == nil || vec.Rows != n || vec.Cols != pairs || len(vec.Data) != n*pairs {
		return nil, fmt.Errorf("spectral: encode inconsistent spectrum (%d modules, %d pairs, %dx%d vectors)",
			n, pairs, vecRows(vec), vecCols(vec))
	}
	var hdr [3 * binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(n))
	hn += binary.PutUvarint(hdr[hn:], uint64(sp.Model()))
	hn += binary.PutUvarint(hdr[hn:], uint64(pairs))
	out := make([]byte, 0, len(specMagic)+hn+8*(pairs+n*pairs))
	out = append(out, specMagic...)
	out = append(out, hdr[:hn]...)
	var b [8]byte
	for _, v := range sp.dec.Values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		out = append(out, b[:]...)
	}
	for _, v := range vec.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		out = append(out, b[:]...)
	}
	return out, nil
}

func vecRows(m *linalg.Dense) int {
	if m == nil {
		return 0
	}
	return m.Rows
}

func vecCols(m *linalg.Dense) int {
	if m == nil {
		return 0
	}
	return m.Cols
}

// DecodeSpectrum parses data (produced by EncodeSpectrum) into a
// Spectrum of h, rebuilding the clique-model graph from the netlist.
// The caller is responsible for handing it the same netlist the
// spectrum was computed from — the decoder verifies the module count
// (the only structural check possible) and every frame bound, and
// returns an error rather than a malformed spectrum for any truncated,
// oversized or inconsistent input. It never panics on arbitrary bytes.
func DecodeSpectrum(data []byte, h *Netlist) (*Spectrum, error) {
	if h == nil {
		return nil, fmt.Errorf("spectral: decode spectrum: nil netlist")
	}
	hdr, rest, err := readSpecHeader(data)
	if err != nil {
		return nil, err
	}
	modules, pairs := hdr.modules, hdr.pairs
	if modules != h.NumModules() {
		return nil, fmt.Errorf("spectral: decode spectrum: encoded for %d modules, netlist has %d", modules, h.NumModules())
	}
	cm, err := Model(hdr.model).clique()
	if err != nil {
		return nil, fmt.Errorf("spectral: decode spectrum: %w", err)
	}
	values := make([]float64, pairs)
	for i := range values {
		values[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	rest = rest[8*pairs:]
	vec := linalg.NewDense(modules, pairs)
	for i := range vec.Data {
		vec.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	for _, v := range values {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("spectral: decode spectrum: NaN eigenvalue")
		}
	}
	g, err := graph.FromHypergraph(h, cm)
	if err != nil {
		return nil, fmt.Errorf("spectral: decode spectrum: rebuild graph: %w", err)
	}
	return &Spectrum{
		modules: modules,
		model:   cm,
		g:       g,
		dec:     &eigen.Decomposition{Values: values, Vectors: vec},
	}, nil
}

// SpectrumPairs returns the pair count in the header of an encoded
// spectrum, frame checked as DecodeSpectrum checks it, for a holder of
// the bytes that has no netlist to decode them against.
func SpectrumPairs(data []byte) (int, error) {
	hdr, _, err := readSpecHeader(data)
	return hdr.pairs, err
}

// specHeader is the header of EncodeSpectrum's layout.
type specHeader struct{ modules, model, pairs int }

// readSpecHeader parses the header of an encoded spectrum and checks its
// frame: 1 ≤ pairs ≤ modules and a payload of exactly (1 + modules) ×
// pairs 8-byte floats, which it returns. It is the one reader of the
// layout EncodeSpectrum writes.
func readSpecHeader(data []byte) (specHeader, []byte, error) {
	rest, ok := bytes.CutPrefix(data, []byte(specMagic))
	var v [3]uint64 // modules, model, pairs
	for i := 0; ok && i < len(v); i++ {
		var k int
		v[i], k = binary.Uvarint(rest)
		ok = k > 0 && v[i] <= math.MaxInt32
		rest = rest[max(k, 0):]
	}
	// Counted in floats, pairs·(modules+1) < 2⁶² cannot overflow.
	modules, pairs, n := v[0], v[2], uint64(len(rest))
	if !ok || pairs < 1 || pairs > modules || n%8 != 0 || n/8 != pairs*(modules+1) {
		return specHeader{}, nil, errors.New("spectral: decode spectrum: malformed header or payload size")
	}
	return specHeader{int(modules), int(v[1]), int(pairs)}, rest, nil
}
