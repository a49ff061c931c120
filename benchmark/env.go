package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is recorded in every report: a figure without the box it
// was taken on (and how busy that box was) is not a measurement.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
	// Noisy marks a run started with the 1-minute load average above
	// nproc/2: something else was competing for the cores, so the report
	// must not be taken as a baseline (-strict turns it into a failure).
	Noisy bool   `json:"noisy"`
	Load  string `json:"load_model"`
}

const loadModel = "closed loop, 2 clients, loopback TCP, owner and server in one process"

func readEnvironment() environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		LoadAvg1:   loadAvg1(),
		Load:       loadModel,
	}
	e.Noisy = e.LoadAvg1 > float64(e.NProc)/2
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is best effort: the driver's checkout is not a git
// repository, and the report says so rather than failing.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		if _, err := os.Stat("../.git"); err != nil {
			return "unknown"
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadAvg1() float64 {
	blob, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(blob))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// cpuTime is the process's user+system CPU time so far — owner and
// server side together, since both live in this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
