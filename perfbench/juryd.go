package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// juryd is one running juryd process.
type juryd struct {
	cmd     *exec.Cmd
	addr    string
	dir     string        // the WAL directory
	drained chan struct{} // closed once stderr hits EOF

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics
}

// startJuryd launches bin on a kernel-picked loopback port with the WAL
// in dir, -fsync batch, and every other flag at its default. It returns
// once /healthz answers 200, with the time that took.
func startJuryd(bin, dir string) (*juryd, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-wal-dir", dir, "-fsync", "batch")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting juryd: %w", err)
	}
	j := &juryd{cmd: cmd, dir: dir, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go j.readLog(stderr, addrc)
	select {
	case j.addr = <-addrc:
	case <-time.After(60 * time.Second):
		j.kill()
		return nil, 0, fmt.Errorf("juryd did not report its address: %s", j.lastLog())
	}
	if j.addr == "" {
		j.kill()
		return nil, 0, fmt.Errorf("juryd exited before serving: %s", j.lastLog())
	}
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{Proxy: nil}}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(60 * time.Second); ; {
		resp, err := hc.Get("http://" + j.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body is unused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return j, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			j.kill()
			return nil, 0, fmt.Errorf("juryd at %s never became healthy: %v", j.addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// readLog scans juryd's log for the "serving" line (which carries the
// bound address) and keeps the last lines for error reports.
func (j *juryd) readLog(r io.Reader, addrc chan<- string) {
	defer close(j.drained)
	sent := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		j.mu.Lock()
		j.tail = append(j.tail, line)
		if len(j.tail) > 20 {
			j.tail = j.tail[1:]
		}
		j.mu.Unlock()
		if !sent && strings.Contains(line, "msg=serving") {
			if i := strings.Index(line, "addr="); i >= 0 {
				addrc <- strings.Fields(line[i+len("addr="):])[0]
				sent = true
			}
		}
	}
	if !sent {
		addrc <- ""
	}
}

func (j *juryd) lastLog() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return strings.Join(j.tail, "\n")
}

// kill sends SIGKILL and waits for the process and its log reader.
func (j *juryd) kill() {
	j.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
	<-j.drained
	j.cmd.Wait() //nolint:errcheck // a killed process exits non-zero by design
}

// stop sends SIGTERM, waits for the graceful drain, and falls back to
// SIGKILL after a grace period.
func (j *juryd) stop() error {
	j.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already-exited is fine
	done := make(chan error, 1)
	go func() {
		<-j.drained
		done <- j.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		j.cmd.Process.Kill() //nolint:errcheck
		<-done
		return errors.New("juryd did not drain within 15s")
	}
}

// vmHWM returns the process's peak resident set size in bytes.
func vmHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// cpuTime returns the process's user+system CPU time ("self" for the
// generator).
func cpuTime(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}
