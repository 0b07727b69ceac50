package main

import (
	"crypto/sha256"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"
)

// machineInfo is the machine block printed with every result.
type machineInfo struct {
	CPU string `json:"cpu"`
	// GFKernels says which gf65536 kernels this CPU selects: the AVX-512
	// ones need F, BW and VBMI, anything less runs the scalar fallback.
	GFKernels  string `json:"gf65536_kernels"`
	AVX512     string `json:"avx512_flags"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end"`
}

func readFirstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func readMachine() machineInfo {
	m := machineInfo{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       "100 (default)",
		Go:         runtime.Version(),
		Kernel:     readFirstLine("/proc/sys/kernel/osrelease"),
		LoadStart:  readFirstLine("/proc/loadavg"),
	}
	if v := os.Getenv("GOGC"); v != "" {
		m.GOGC = v
	}
	have := map[string]bool{}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			key, val, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(key) {
			case "model name":
				m.CPU = strings.TrimSpace(val)
			case "flags":
				for _, f := range strings.Fields(val) {
					have[f] = true
				}
			}
			if m.CPU != "unknown" && len(have) > 0 {
				break
			}
		}
	}
	var flags []string
	for _, f := range []string{"avx512f", "avx512bw", "avx512vbmi"} {
		if have[f] {
			flags = append(flags, f)
		}
	}
	m.AVX512 = strings.Join(flags, " ")
	m.GFKernels = "scalar fallback"
	if len(flags) == 3 && runtime.GOARCH == "amd64" {
		m.GFKernels = "avx512 (F+BW+VBMI)"
	}
	return m
}

// calibration holds the times of three fixed kernels that touch none of
// the repository's code: a noisy window on the machine shows up as a
// difference between the run before the slots and the run after.
type calibration struct{ shaMs, streamMs, chaseMs float64 }

var calibSink uint64

func runCalibration() calibration {
	var c calibration

	buf := make([]byte, 16<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	begin := time.Now()
	sum := sha256.Sum256(buf[:8<<20])
	c.shaMs = ms(time.Since(begin))
	calibSink += uint64(sum[0])

	// Streaming XOR over 16 MiB, a word at a time; the untimed first
	// pass takes the page faults of the fresh buffer.
	words := make([]uint64, 2<<20)
	var acc uint64
	for i := range words {
		words[i] = uint64(i)
	}
	begin = time.Now()
	for pass := 0; pass < 4; pass++ {
		for i := range words {
			words[i] ^= uint64(i) + acc
			acc += words[i]
		}
	}
	c.streamMs = ms(time.Since(begin)) / 4
	calibSink += acc

	// Pointer chase through one 16 MiB cycle (Sattolo's shuffle), every
	// load dependent on the one before.
	rng := rand.New(rand.NewSource(1))
	for i := range words {
		words[i] = uint64(i)
	}
	for i := len(words) - 1; i > 0; i-- {
		j := rng.Intn(i)
		words[i], words[j] = words[j], words[i]
	}
	begin = time.Now()
	p := uint64(0)
	for i := 0; i < 1<<20; i++ {
		p = words[p]
	}
	c.chaseMs = ms(time.Since(begin))
	calibSink += p
	return c
}
