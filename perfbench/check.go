package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// stderr is where per-op diagnostics go; tests may redirect it.
var stderr io.Writer = os.Stderr

// checkMapping is the correctness gate every returned mapping passes:
// mapping[u] is the target of source node u, so it must have one entry per
// source node, every entry must be a target node, and no target may be used
// twice.
func checkMapping(mapping []int, nSrc, nDst int) error {
	if len(mapping) != nSrc {
		return fmt.Errorf("mapping has %d entries for %d source nodes", len(mapping), nSrc)
	}
	used := make([]bool, nDst)
	for u, v := range mapping {
		if v < 0 || v >= nDst {
			return fmt.Errorf("mapping[%d] = %d is outside [0, %d)", u, v, nDst)
		}
		if used[v] {
			return fmt.Errorf("mapping[%d] = %d reuses a target node", u, v)
		}
		used[v] = true
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verdict sets the result's correct flag and reports every failed check.
func verdict(rep *report, incorrect []string) error {
	rep.Correct = len(incorrect) == 0
	if rep.Correct {
		return nil
	}
	for _, msg := range incorrect {
		fmt.Fprintln(stderr, "perfbench: incorrect:", msg)
	}
	return fmt.Errorf("%w: %d failed checks", errIncorrect, len(incorrect))
}

// peakRSSMiB is the peak resident set size of a process (0 = this one), from
// /proc/<pid>/status, or 0 where that file cannot be read.
func peakRSSMiB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
