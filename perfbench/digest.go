package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"isolbench/internal/core"
	"isolbench/internal/workload"
)

// digest hashes a cell's simulated statistics. Host timings never enter
// it, so a change that only speeds the simulator up leaves it unchanged.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) i64(v int64)   { d.u64(uint64(v)) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) str(s string)  { d.u64(uint64(len(s))); d.h.Write([]byte(s)) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

func (d *digest) appStats(st workload.Stats) {
	d.str(st.Name)
	d.u64(st.IOs)
	d.u64(st.Errors)
	d.u64(st.Retries)
	d.i64(st.ReadBytes)
	d.i64(st.WriteBytes)
	d.f64(st.MeanLatNs)
	d.i64(st.P50Ns)
	d.i64(st.P90Ns)
	d.i64(st.P99Ns)
	d.i64(st.MaxNs)
}

// result hashes every field of a window's core.Result except the
// observer handle.
func (d *digest) result(r core.Result) {
	d.str(r.Knob.String())
	d.i64(int64(r.Span))
	d.u64(uint64(len(r.Apps)))
	for _, a := range r.Apps {
		d.appStats(a)
	}
	for _, g := range r.Groups {
		d.str(g.Name)
		d.f64(g.Weight)
		d.u64(g.IOs)
		d.u64(g.Errors)
		d.i64(g.Bytes)
		d.f64(g.BW)
		d.i64(int64(g.P50))
		d.i64(int64(g.P90))
		d.i64(int64(g.P99))
		d.f64(g.MeanLatNs)
	}
	d.f64(r.AggregateBW)
	d.f64(r.CPUUtil)
	d.f64(r.CtxPerIO)
	d.f64(r.CyclesPerIO)
	d.u64(r.IOs)
	d.u64(r.Errors)
	d.u64(r.Retries)
	d.u64(r.Timeouts)
}

// fleetEnd hashes the device and blk counters and the event count once
// the cell has run.
func (d *digest) fleetEnd(fl *core.Fleet) {
	for i, dev := range fl.Devices {
		s := dev.Stats()
		d.u64(s.ReadsCompleted)
		d.u64(s.WritesCompleted)
		d.i64(s.ReadBytes)
		d.i64(s.WriteBytes)
		d.u64(uint64(s.Inflight))
		d.i64(s.GCDebtBytes)
		d.i64(int64(s.ChannelBusy))
		d.i64(int64(s.PipeBusy))
		d.u64(s.GCEvents)
		d.u64(s.FaultErrors)
		d.u64(s.FaultDrops)
		d.u64(s.FaultSpikes)
		q := fl.Queues[i]
		d.u64(q.Submitted())
		d.u64(q.Completed())
		d.u64(q.Retries())
		d.u64(q.Timeouts())
		d.u64(q.Failures())
	}
	d.u64(fl.Eng.Processed())
	d.i64(int64(fl.Eng.Now()))
}

// refTable maps workload -> seed -> cell -> digest.
type refTable map[string]map[string]map[string]string

func loadRefTable(path string) (refTable, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return refTable{}, nil
	}
	if err != nil {
		return nil, err
	}
	var t refTable
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

func (t refTable) lookup(wl string, seed uint64) map[string]string {
	return t[wl][strconv.FormatUint(seed, 10)]
}

func (t refTable) set(wl string, seed uint64, cells map[string]string) {
	if t[wl] == nil {
		t[wl] = map[string]map[string]string{}
	}
	t[wl][strconv.FormatUint(seed, 10)] = cells
}

func (t refTable) save(path string) error {
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
