package portal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

// memSyncer is an in-memory WriteSyncer whose contents can be
// snapshotted concurrently with pool writes — the test stand-in for a
// journal file, with Bytes() as the "what survived the crash" read.
type memSyncer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (m *memSyncer) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buf.Write(p)
}

func (m *memSyncer) Sync() error { return nil }

func (m *memSyncer) Bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.buf.Bytes()...)
}

// journaledPool builds a pool writing its journal to a fresh memSyncer.
func journaledPool(cfg PoolConfig, opts JournalOpts) (*Pool, *memSyncer) {
	ms := &memSyncer{}
	cfg.Journal = NewJournal(ms, opts)
	if cfg.Observer == nil {
		cfg.Observer = obs.NewObserver(nil)
	}
	return NewPool(cfg), ms
}

func TestJournalRoundTripRecover(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), time.Millisecond)
	p, ms := journaledPool(PoolConfig{Workers: 2, Clock: clk}, JournalOpts{})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, user := range []string{"alice", "bob"} {
			if _, err := p.Submit(user, "echo", fmt.Sprintf("%s/%d", user, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Close()
	if !p.Ledger().Balanced() || p.Ledger().Admitted != 6 {
		t.Fatalf("source ledger = %+v", p.Ledger())
	}

	p2, rep, err := RecoverPool(PoolConfig{Workers: 2, Clock: clk,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(ms.Bytes()), echoTool())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if !rep.SnapshotUsed {
		t.Fatal("Close compacts: recovery should replay from the snapshot")
	}
	if rep.Requeued != 0 || rep.Rerun != 0 || rep.Expired != 0 || rep.Orphaned != 0 {
		t.Fatalf("quiescent journal should restore no live tickets: %+v", rep)
	}
	if rep.TornBytes != 0 {
		t.Fatalf("TornBytes = %d on a clean journal", rep.TornBytes)
	}
	if rep.HistoryUsers != 2 || rep.HistoryEntries != 6 {
		t.Fatalf("history sizing = %d users / %d entries", rep.HistoryUsers, rep.HistoryEntries)
	}
	if got := p2.Ledger(); got != p.Ledger() {
		t.Fatalf("recovered ledger %+v != source %+v", got, p.Ledger())
	}
	for _, user := range []string{"alice", "bob"} {
		if !reflect.DeepEqual(p2.History(user), p.History(user)) {
			t.Fatalf("%s history diverged:\n got %+v\nwant %+v", user, p2.History(user), p.History(user))
		}
	}
	// The recovered pool is warm: it keeps serving.
	if _, err := p2.Submit("alice", "echo", "after"); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornTailSweep chops a recorded journal at every byte
// offset and asserts each prefix replays without error (a torn tail is
// a crash signature, not corruption) into internally consistent state:
// admitted == terminal + live, order ⊆ live, and the valid prefix plus
// the torn tail account for every byte.
func TestJournalTornTailSweep(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), time.Millisecond)
	p, ms := journaledPool(PoolConfig{Workers: 1, Clock: clk,
		QuotaRate: 100, QuotaBurst: 100}, JournalOpts{CompactEvery: 5})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := p.Submit("u", "echo", fmt.Sprintf("j%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	data := ms.Bytes()
	cfg := PoolConfig{QuotaRate: 100, QuotaBurst: 100}.withDefaults()

	for cut := 0; cut <= len(data); cut++ {
		st, order, rep, err := replayJournal(data[:cut], cfg)
		if err != nil {
			t.Fatalf("cut %d/%d: unexpected corruption: %v", cut, len(data), err)
		}
		terminal := st.ledger.Completed + st.ledger.Expired + st.ledger.Cancelled + st.ledger.Replayed
		if st.ledger.Admitted != terminal+int64(len(st.live)) {
			t.Fatalf("cut %d: ledger %+v inconsistent with %d live", cut, st.ledger, len(st.live))
		}
		for _, seq := range order {
			if _, ok := st.live[seq]; !ok {
				t.Fatalf("cut %d: order references dead seq %d", cut, seq)
			}
		}
		if rep.Bytes+rep.TornBytes != int64(cut) {
			t.Fatalf("cut %d: bytes %d + torn %d don't cover the prefix", cut, rep.Bytes, rep.TornBytes)
		}
	}
}

func TestJournalChecksumCorruption(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), time.Millisecond)
	p, ms := journaledPool(PoolConfig{Workers: 1, Clock: clk}, JournalOpts{})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Submit("u", "echo", fmt.Sprintf("j%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	data := ms.Bytes()

	// Flip one payload byte in the second record (a 2-byte start
	// record; +1 is its seq field): the first record still replays,
	// the rest is refused as corrupt.
	first := 8 + int(binary.LittleEndian.Uint32(data))
	data[first+8+1] ^= 0xff
	_, _, rep, err := replayJournal(data, PoolConfig{}.withDefaults())
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("err = %v, want ErrJournalCorrupt", err)
	}
	if rep.Records != 1 {
		t.Fatalf("replayed %d records before the corruption, want 1", rep.Records)
	}
	if rep.TornBytes != 0 {
		t.Fatal("corruption must not be reported as a torn tail")
	}

	// RecoverPool still returns the valid-prefix warm pool alongside
	// the error, and that pool serves.
	p2, _, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(data), echoTool())
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("RecoverPool err = %v", err)
	}
	if p2 == nil {
		t.Fatal("RecoverPool should return the valid-prefix pool on corruption")
	}
	defer p2.Close()
	if _, err := p2.Submit("u", "echo", "still-serving"); err != nil {
		t.Fatal(err)
	}
}

// TestJournalDuplicateAndUnknownRecords feeds replay a log with
// duplicated admits and dones plus transitions for unknown sequences:
// the first record of each kind wins and nothing double-counts.
func TestJournalDuplicateAndUnknownRecords(t *testing.T) {
	ms := &memSyncer{}
	j := NewJournal(ms, JournalOpts{})
	t0 := time.Unix(9000, 0).UTC()
	tk := &Ticket{seq: 1, user: "u", tool: "echo", input: "a", queuedAt: t0}
	j.appendAdmit(tk)
	j.appendAdmit(tk) // duplicate admit
	j.appendStart(1)
	j.appendStart(7) // start for a seq never admitted
	done := doneRec{seq: 1, state: doneCompleted, ran: true,
		res: JobResult{Tool: "echo", Input: "a", Output: "a", When: t0}}
	j.appendDone(done)
	j.appendDone(done)                                             // duplicate done
	j.appendDone(doneRec{seq: 9, state: doneCompleted, ran: true}) // unknown seq
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}

	st, order, rep, err := replayJournal(ms.Bytes(), PoolConfig{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 7 {
		t.Fatalf("records = %d, want 7", rep.Records)
	}
	if st.ledger.Admitted != 1 || st.ledger.Completed != 1 {
		t.Fatalf("ledger = %+v, want exactly one admit and one completion", st.ledger)
	}
	if len(st.live) != 0 || len(order) != 0 {
		t.Fatalf("live = %v, order = %v, want empty", st.live, order)
	}
	if h := st.hist["u"]; len(h) != 1 || h[0].Output != "a" {
		t.Fatalf("history = %+v, want the single completion", h)
	}
}

func TestJournalCompaction(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), time.Millisecond)
	p, ms := journaledPool(PoolConfig{Workers: 1, Clock: clk, HistoryLimit: 4},
		JournalOpts{CompactEvery: 4})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := p.Submit("u", "echo", fmt.Sprintf("j%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	data := ms.Bytes()

	// Count snapshot frames: 20 jobs × 3 records at CompactEvery=4
	// must have compacted repeatedly, plus the Close snapshot.
	snaps := 0
	for off := 0; off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if data[off+8] == recSnapshot {
			snaps++
		}
		off += 8 + n
	}
	if snaps < 5 {
		t.Fatalf("found %d snapshot records, want ≥ 5", snaps)
	}

	p2, rep, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk, HistoryLimit: 4,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(data), echoTool())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if !rep.SnapshotUsed {
		t.Fatal("recovery should restart from the last snapshot")
	}
	if !reflect.DeepEqual(p2.History("u"), p.History("u")) {
		t.Fatalf("compacted recovery history diverged:\n got %+v\nwant %+v",
			p2.History("u"), p.History("u"))
	}
	if got := p2.Ledger(); got != p.Ledger() {
		t.Fatalf("ledger %+v != %+v", got, p.Ledger())
	}
}

// failAfterSyncer accepts n writes then fails permanently — the
// disk-gone case, which must wedge the journal, not the pool.
type failAfterSyncer struct{ n int }

func (f *failAfterSyncer) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk gone")
	}
	f.n--
	return len(p), nil
}

func (f *failAfterSyncer) Sync() error { return nil }

func TestJournalWriteErrorWedgesJournalNotPool(t *testing.T) {
	ob := obs.NewObserver(nil)
	j := NewJournal(&failAfterSyncer{n: 2}, JournalOpts{})
	p := NewPool(PoolConfig{Workers: 1, Journal: j, Observer: ob})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := p.Submit("u", "echo", fmt.Sprintf("j%d", i)); err != nil {
			t.Fatalf("pool must keep serving after journal death: %v", err)
		}
	}
	if err := p.Journal().Err(); err == nil {
		t.Fatal("journal should be wedged")
	}
	recs, _ := j.Stats()
	if recs != 2 {
		t.Fatalf("journal persisted %d records, want the 2 pre-failure ones", recs)
	}
	if len(p.History("u")) != 6 {
		t.Fatalf("history = %d entries, want all 6", len(p.History("u")))
	}
	if got := ob.Snapshot().Metrics.Counters["pool_journal_errors_total"]; got != 1 {
		t.Fatalf("pool_journal_errors_total = %d, want 1 (first error only)", got)
	}
}
