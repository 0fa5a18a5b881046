package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file keeps the benchmark's medians off the CPU time the hypervisor
// steals from the machine. On a shared virtual machine other tenants take
// bursts of CPU: runs with 5–11 % of their time stolen released full-domain
// 15–50 % slower than runs with under 1 % stolen. Each timed sample (a
// release, a set-up, a one-second window of queries) records the share of
// CPU time stolen while it ran, and medians are taken over the quiet
// samples.

// quietSteal is the stolen share above which a sample counts as disturbed.
const quietSteal = 0.02

// stealMark is one reading of the machine's cumulative CPU time, in clock
// ticks: the stolen part and the total.
type stealMark struct{ steal, total uint64 }

// markSteal reads the aggregate cpu line of /proc/stat. Where the file is
// missing or unreadable the mark is zero and every sample counts as quiet.
func markSteal() stealMark {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return stealMark{}
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return stealMark{}
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealMark{}
	}
	var m stealMark
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return stealMark{}
		}
		m.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			m.steal = v
		}
	}
	return m
}

// stolen is the share of CPU time stolen between two marks (0 when no tick
// passed).
func stolen(from, to stealMark) float64 {
	if to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}

// quietMedian is the median of vals over the samples whose stolen share is
// at most quietSteal. When fewer than half of them qualify it is the median
// over the half with the least stolen, so a run on a disturbed machine still
// reports its quietest samples.
func quietMedian(vals, steal []float64) float64 {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep := 0
	for _, i := range idx {
		if steal[i] <= quietSteal {
			keep++
		}
	}
	keep = max(keep, (len(vals)+1)/2)
	quiet := make([]float64, keep)
	for k, i := range idx[:keep] {
		quiet[k] = vals[i]
	}
	return medianF(quiet)
}

// stealSampler marks steal every stealTick while a measured phase runs, so
// the phase's windows can be told apart afterwards.
type stealSampler struct {
	start time.Time
	stop  chan struct{}
	wg    sync.WaitGroup
	at    []time.Duration
	marks []stealMark
}

const stealTick = 100 * time.Millisecond

func startStealSampler() *stealSampler {
	s := &stealSampler{start: time.Now(), stop: make(chan struct{})}
	s.at, s.marks = append(s.at, 0), append(s.marks, markSteal())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(stealTick)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.at, s.marks = append(s.at, time.Since(s.start)), append(s.marks, markSteal())
			}
		}
	}()
	return s
}

// finish stops sampling and takes the closing mark.
func (s *stealSampler) finish() {
	close(s.stop)
	s.wg.Wait()
	s.at, s.marks = append(s.at, time.Since(s.start)), append(s.marks, markSteal())
}

// between is the stolen share from the first mark at or after a to the last
// mark at or before b (the whole phase when the window is too short to hold
// two marks).
func (s *stealSampler) between(a, b time.Duration) float64 {
	i := sort.Search(len(s.at), func(k int) bool { return s.at[k] >= a })
	j := sort.Search(len(s.at), func(k int) bool { return s.at[k] > b }) - 1
	if i >= j {
		return stolen(s.marks[0], s.marks[len(s.marks)-1])
	}
	return stolen(s.marks[i], s.marks[j])
}
