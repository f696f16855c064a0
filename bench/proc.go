package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicksPerSecond is USER_HZ, the unit of the CPU fields of
// /proc/<pid>/stat. Linux has fixed it at 100 on every architecture Go
// runs on; reading it properly needs sysconf, which needs cgo.
const clockTicksPerSecond = 100

// parseStatCPU extracts utime+stime, in seconds, from the contents of
// /proc/<pid>/stat. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After ")": state is field 3, utime field 14, stime field 15.
	fields := strings.Fields(string(stat[end+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// parseStatusMB extracts one "Vm*: <n> kB" line from the contents of
// /proc/<pid>/status, in MB (2^20 bytes).
func parseStatusMB(status []byte, key string) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %s: %w", key, err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// cpuSeconds reads the CPU time a live process has used so far.
func cpuSeconds(pid int) (float64, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(stat)
}

// memMB reads one Vm* figure of a live process.
func memMB(pid int, key string) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusMB(status, key)
}

// loadavg returns the first line of /proc/loadavg, or "unknown".
func loadavg() string {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}
