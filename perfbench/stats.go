package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified). Empty
// input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latWindows is how many consecutive windows windowed splits samples
// into.
const latWindows = 5

// windowed is the median over latWindows consecutive windows of xs of
// each window's q-quantile: a stall on a shared host moves one window,
// not the figure.
func windowed(xs []float64, q float64) float64 {
	n := len(xs) / latWindows
	if n == 0 {
		return quantile(xs, q)
	}
	per := make([]float64, latWindows)
	for w := range per {
		per[w] = quantile(xs[w*n:(w+1)*n], q)
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// hostStamp records what a number was measured on, so figures from
// different hosts compare as ratios against host.ref_ns_per_instr.
func hostStamp(root, src string) map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"go_version":    runtime.Version(),
		"commit":        gitCommit(root),
		"source_sha256": src,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD without running git; a checkout exported without
// its .git directory reports "none" and is identified by source_sha256.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	b, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes every Go source and module file of the checkout
// in path order, skipping build output.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rssMiB reads a process's resident set (field "VmRSS") or peak
// resident set ("VmHWM") in MiB from /proc; pid 0 means this process.
func rssMiB(pid int, field string) float64 {
	p := "/proc/self/status"
	if pid != 0 {
		p = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != field {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			return 0
		}
		kb, _ := strconv.ParseFloat(f[0], 64)
		return kb / 1024
	}
	return 0
}

// rssSampler tracks this process's peak resident set over a phase by
// sampling, since the kernel's own peak also covers set-up.
type rssSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak float64
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), peak: rssMiB(0, "VmRSS")}
	r.done.Add(1)
	go func() {
		defer r.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				v := rssMiB(0, "VmRSS")
				r.mu.Lock()
				r.peak = max(r.peak, v)
				r.mu.Unlock()
			}
		}
	}()
	return r
}

// Stop ends sampling and returns the peak in MiB.
func (r *rssSampler) Stop() float64 {
	close(r.stop)
	r.done.Wait()
	r.peak = max(r.peak, rssMiB(0, "VmRSS"))
	return r.peak
}
