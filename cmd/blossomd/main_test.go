package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildDaemon compiles blossomd into a temp dir once per test run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "blossomd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestGracefulDrain: SIGTERM mid-request must (a) stop accepting new
// connections, (b) let the in-flight request finish with its normal
// response, and (c) exit 0. The in-flight request is held open
// deterministically by sending its headers plus half of its JSON body,
// so the handler is parked in the body read when the signal lands.
func TestGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-gen", "d2:2000")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Scrape the announced address (the -addr :0 contract).
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "blossomd listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listening line from daemon: %v", sc.Err())
	}

	// Open the in-flight request: full headers, half the body. The
	// handler starts as soon as the headers are in and blocks decoding
	// the body, which pins the connection active through Shutdown.
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"query": "//b"}`
	half := len(body) / 2
	fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		addr, len(body), body[:half])

	// Give the server a moment to read the headers and enter the
	// handler, then deliver SIGTERM.
	time.Sleep(150 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// New work must be refused: Shutdown closes the listener first.
	refused := false
	for i := 0; i < 20; i++ {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			refused = true
			break
		}
		// Accepted by lingering backlog: a request on it must not be
		// served to completion; just close and retry.
		c.Close()
		time.Sleep(50 * time.Millisecond)
	}
	if !refused {
		t.Error("new connections still accepted after SIGTERM")
	}

	// The in-flight request completes normally once its body arrives.
	if _, err := io.WriteString(conn, body[half:]); err != nil {
		t.Fatalf("completing in-flight body: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	res, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading in-flight response: %v", err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(res.Body)
		t.Errorf("in-flight request status = %d, body %s", res.StatusCode, b)
	}

	// Clean exit.
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon did not exit after drain")
	}
}

// startDaemon launches the built binary, scrapes the announced address,
// and returns the command, address, and a buffer accumulating stderr.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string, *syncBuffer) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	errBuf := &syncBuffer{}
	cmd.Stderr = errBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "blossomd listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("no listening line from daemon: %v\nstderr:\n%s", sc.Err(), errBuf.String())
	}
	return cmd, addr, errBuf
}

// syncBuffer is a mutex-guarded bytes.Buffer safe for use as cmd.Stderr
// while the test reads it concurrently.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestLoadBasenameCollision: two -load paths sharing a basename must be
// refused at startup with an error naming both paths, before anything
// is parsed or persisted.
func TestLoadBasenameCollision(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)

	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")
	for _, d := range []string{dirA, dirB} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "bib.xml"), []byte(`<bib/>`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pathA := filepath.Join(dirA, "bib.xml")
	pathB := filepath.Join(dirB, "bib.xml")

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-load", pathA, "-load", pathB)
	out, err := cmd.CombinedOutput()
	if err == nil {
		cmd.Process.Kill()
		t.Fatalf("daemon started despite colliding -load basenames; output:\n%s", out)
	}
	msg := string(out)
	if !strings.Contains(msg, pathA) || !strings.Contains(msg, pathB) {
		t.Errorf("collision error does not name both paths:\n%s", msg)
	}
	if !strings.Contains(msg, `"bib.xml"`) {
		t.Errorf("collision error does not name the colliding URI:\n%s", msg)
	}
}

// TestDataDirRestart: first run persists -load documents into -data;
// the second run serves them from the segment store without re-parsing
// (observable via the "served from segment store" log line) and answers
// the same query identically.
func TestDataDirRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)

	srcDir := t.TempDir()
	xmlPath := filepath.Join(srcDir, "bib.xml")
	const bib = `<bib><book><title>TCP/IP Illustrated</title><price>65.95</price></book><book><title>Data on the Web</title><price>39.95</price></book></bib>`
	if err := os.WriteFile(xmlPath, []byte(bib), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(t.TempDir(), "segments")

	query := func(addr string) string {
		t.Helper()
		res, err := http.Post("http://"+addr+"/query", "application/json",
			strings.NewReader(`{"query": "//book/title"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		b, _ := io.ReadAll(res.Body)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("query status = %d, body %s", res.StatusCode, b)
		}
		// Drop per-process volatile fields (query id, latency, trace URL)
		// so the comparison is over the semantic payload.
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("bad query response %s: %v", b, err)
		}
		delete(m, "query_id")
		delete(m, "elapsed_ms")
		delete(m, "trace_url")
		norm, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(norm)
	}
	stop := func(cmd *exec.Cmd) {
		t.Helper()
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			t.Fatal("daemon did not exit")
		}
	}

	// First run: parse + persist.
	cmd1, addr1, log1 := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-data", dataDir, "-load", xmlPath)
	want := query(addr1)
	stop(cmd1)
	if !strings.Contains(log1.String(), "document persisted") {
		t.Errorf("first run did not persist:\n%s", log1.String())
	}
	if _, err := os.Stat(filepath.Join(dataDir, "manifest.json")); err != nil {
		t.Fatalf("no manifest after first run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "feedback.json")); !os.IsNotExist(err) {
		t.Errorf("shutdown wrote a feedback file (stat: %v); plans learn per process", err)
	}

	// Restart: same flags, served from the store.
	start := time.Now()
	cmd2, addr2, log2 := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-data", dataDir, "-load", xmlPath)
	ready := time.Since(start)
	got := query(addr2)
	stop(cmd2)
	if !strings.Contains(log2.String(), "document served from segment store") {
		t.Errorf("restart re-parsed instead of serving from store:\n%s", log2.String())
	}
	if got != want {
		t.Errorf("restart answered differently:\n first: %s\n second: %s", want, got)
	}
	if ready > 5*time.Second {
		t.Errorf("restart took %v to become ready", ready)
	}
}
