package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"testing"

	spectral "repro"
)

// frameT frames rec for corpus construction, failing the test on
// marshal errors.
func frameT(t interface{ Fatal(...any) }, rec Record) []byte {
	b, err := frame(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// validSegment builds a well-formed segment holding a netlist, a
// submitted job, its start, and its finish.
func validSegment(t interface{ Fatal(...any) }) []byte {
	var buf bytes.Buffer
	buf.WriteString(segMagic)
	buf.Write(frameT(t, Record{Type: TypeNetlist, Hash: "sha256:ab", Name: "prim1", Netlist: []byte("net n1 a b\nnet n2 b c\n")}))
	buf.Write(frameT(t, Record{Type: TypeSubmit, ID: "job-000001", Hash: "sha256:ab",
		Spec: &JobSpec{Kind: "partition", Options: spectral.Options{Method: spectral.MELO, K: 2, D: 10}, TimeoutNS: 5e9}}))
	buf.Write(frameT(t, Record{Type: TypeStart, ID: "job-000001"}))
	buf.Write(frameT(t, Record{Type: TypeFinish, ID: "job-000001", State: StateDone, Result: json.RawMessage(`{"assign":[0,1],"k":2}`)}))
	buf.Write(frameT(t, Record{Type: TypeSpectrum, Hash: "sha256:ab", Model: "partitioning-specific", Pairs: 11}))
	return buf.Bytes()
}

// FuzzJournalReplay feeds arbitrary segment bytes to the replay path.
// The contract under test is the boot guarantee: replay never panics
// and never rejects input — any damage folds into truncation/corruption
// counters while every intact prefix record is preserved.
func FuzzJournalReplay(f *testing.F) {
	f.Add(validSegment(f))
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add([]byte("not a journal at all"))

	// Torn tail: valid segment with the last 7 bytes missing.
	seg := validSegment(f)
	f.Add(seg[:len(seg)-7])

	// Bit flip in the middle (CRC must catch it).
	flipped := append([]byte(nil), seg...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	// Checksummed garbage: framing intact, payload is not JSON.
	var garbage bytes.Buffer
	garbage.WriteString(segMagic)
	payload := []byte("{{{{not json")
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	garbage.Write(hdr[:])
	garbage.Write(payload)
	garbage.Write(frameT(f, Record{Type: TypeSubmit, ID: "job-000002", Hash: "h"}))
	f.Add(garbage.Bytes())

	// Implausible length header.
	var huge bytes.Buffer
	huge.WriteString(segMagic)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(maxRecordBytes+12))
	huge.Write(hdr[:])
	f.Add(huge.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		res := newReplayResult()
		res.replaySegment("fuzz", data) // must not panic

		// Replay output must be internally consistent: every job listed
		// once, terminal jobs carry a valid state string.
		seen := make(map[string]bool)
		for _, j := range res.Jobs {
			if j.ID == "" {
				t.Fatalf("replayed job with empty ID")
			}
			if seen[j.ID] {
				t.Fatalf("job %s listed twice", j.ID)
			}
			seen[j.ID] = true
			switch j.State {
			case StatePending, StateRunning, StateDone, StateFailed, StateCancelled:
			default:
				t.Fatalf("job %s has invalid state %q", j.ID, j.State)
			}
		}
		for _, n := range res.Netlists {
			if _, ok := res.byHash[n.Hash]; !ok {
				t.Fatalf("netlist %s missing from index", n.Hash)
			}
		}
	})
}

// The fuzz seeds double as a regression test: the valid segment seed
// must replay completely.
func TestFuzzSeedValidSegmentReplays(t *testing.T) {
	res := newReplayResult()
	res.replaySegment("seed", validSegment(t))
	if len(res.Jobs) != 1 || res.Jobs[0].State != StateDone {
		t.Fatalf("valid seed replay: %+v", res.Jobs)
	}
	if res.Stats.CorruptRecords != 0 || res.Stats.TornSegments != 0 {
		t.Fatalf("valid seed reported damage: %+v", res.Stats)
	}
	if len(res.Netlists) != 1 || len(res.Hints) != 1 {
		t.Fatalf("valid seed state: netlists=%d hints=%d", len(res.Netlists), len(res.Hints))
	}
}
