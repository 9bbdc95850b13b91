package jobs

import (
	"encoding/binary"
	"encoding/json"
	"strconv"
)

// Labels is a partition assignment packed for retention: module i's
// cluster label is the i-th uvarint, so an assignment with K ≤ 128 costs
// one byte per module instead of the eight of an []int, and any K is
// representable. A finished job's result lives as long as the pool
// retains the job, which makes this the dominant per-job cost on a busy
// daemon. Labels marshals to and from the same JSON number array as
// []int, so HTTP responses and journal records are unchanged.
type Labels []byte

// packLabels packs an assignment.
func packLabels(assign []int) Labels {
	l := make(Labels, 0, len(assign))
	for _, c := range assign {
		l = binary.AppendUvarint(l, uint64(c))
	}
	return l
}

// Ints unpacks the assignment.
func (l Labels) Ints() []int {
	out := make([]int, 0, len(l))
	l.each(func(c int) { out = append(out, c) })
	return out
}

// each calls fn with every label in module order.
func (l Labels) each(fn func(c int)) {
	for len(l) > 0 {
		v, w := binary.Uvarint(l)
		if w <= 0 {
			return // unreachable for packLabels output
		}
		fn(int(v))
		l = l[w:]
	}
}

// MarshalJSON writes the labels as a JSON number array, byte-identical
// to encoding/json's rendering of the unpacked []int.
func (l Labels) MarshalJSON() ([]byte, error) {
	out := make([]byte, 1, 2+2*len(l))
	out[0] = '['
	l.each(func(c int) {
		if len(out) > 1 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, int64(c), 10)
	})
	return append(out, ']'), nil
}

// UnmarshalJSON reads a JSON number array, accepting exactly what an
// []int field would.
func (l *Labels) UnmarshalJSON(data []byte) error {
	var assign []int
	if err := json.Unmarshal(data, &assign); err != nil {
		return err
	}
	if assign == nil {
		*l = nil
		return nil
	}
	*l = packLabels(assign)
	return nil
}
