// Command carsctl is the client for carsd.
//
//	carsctl -addr http://localhost:8344 health
//	carsctl metrics [prefix]
//	carsctl simulate -config cars -workload MST [-force low] [-timeout 30s]
//	carsctl vet -config base -workload BFS
//	carsctl experiment -id fig12
//	carsctl submit -kind simulate -config cars -workload MST
//	carsctl poll <job-id>
//	carsctl fetch <job-id>
//	carsctl snapshot
//
// When the daemon sheds load with 429 (queue full), carsctl honors the
// Retry-After header: bounded retries (-retries, default 4) with a
// capped, jittered backoff instead of a hard failure, so scripted
// clients ride out transient bursts without a thundering-herd retry.
//
// snapshot fetches /metricsz, the daemon's typed JSON counter readout.
// Load generation (including the N-identical-requests single-flight
// burst) is carsbench's job.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"carsgo/internal/load"
)

var (
	addr    string
	retries int
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: carsctl [-addr URL] [-retries N] <health|metrics|snapshot|simulate|vet|experiment|submit|poll|fetch> [args]")
	os.Exit(2)
}

func main() {
	flag.StringVar(&addr, "addr", envOr("CARSD_ADDR", "http://localhost:8344"), "carsd base URL")
	flag.IntVar(&retries, "retries", 4, "max retries after 429 queue-full responses (0 disables)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "health":
		err = get("/healthz", os.Stdout)
	case "metrics":
		err = metricsCmd(args)
	case "snapshot":
		err = snapshotCmd()
	case "simulate":
		err = simulate(args)
	case "vet":
		err = vetCmd(args)
	case "experiment":
		err = experiment(args)
	case "submit":
		err = submit(args)
	case "poll":
		err = jobGet(args, "")
	case "fetch":
		err = jobGet(args, "/result")
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "carsctl %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

func get(path string, w io.Writer) error {
	resp, err := http.Get(addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	_, err = w.Write(body)
	return err
}

// post sends a JSON document and pretty-prints the JSON reply. 429s
// are retried with backoff (see postRetry); other non-2xx replies
// become errors carrying the server's error envelope.
func post(path string, doc any) error {
	body, code, err := postRetry(path, doc)
	if err != nil {
		return err
	}
	if code >= 400 {
		return fmt.Errorf("HTTP %d: %s", code, strings.TrimSpace(string(body)))
	}
	return prettyJSON(os.Stdout, body)
}

// postRetry posts the document, honoring the daemon's load shedding:
// a 429 queue-full reply is retried up to -retries times, sleeping the
// server's Retry-After estimate (capped) plus up to 25% jitter so a
// burst of shed clients does not re-arrive as the same burst. Any
// other reply — success or error — returns immediately.
func postRetry(path string, doc any) ([]byte, int, error) {
	jitter := load.NewRNG(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid()))
	for attempt := 0; ; attempt++ {
		body, code, hdr, err := postRaw(path, doc)
		if err != nil || code != http.StatusTooManyRequests || attempt >= retries {
			return body, code, err
		}
		wait := retryDelay(hdr.Get("Retry-After"), attempt)
		wait += time.Duration(jitter.Uint64() % uint64(wait/4+1))
		fmt.Fprintf(os.Stderr, "carsctl: queue full (429), retry %d/%d in %v\n",
			attempt+1, retries, wait.Round(time.Millisecond))
		time.Sleep(wait)
	}
}

// retryDelay turns a Retry-After header (seconds) into a bounded
// sleep, falling back to exponential backoff when the header is
// missing or unparseable.
func retryDelay(header string, attempt int) time.Duration {
	const maxDelay = 5 * time.Second
	if sec, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && sec >= 0 {
		d := time.Duration(sec) * time.Second
		if d == 0 {
			d = 250 * time.Millisecond
		}
		return min(d, maxDelay)
	}
	return min(250*time.Millisecond<<attempt, maxDelay)
}

func postRaw(path string, doc any) ([]byte, int, http.Header, error) {
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, 0, nil, err
	}
	resp, err := http.Post(addr+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return body, resp.StatusCode, resp.Header, nil
}

func prettyJSON(w io.Writer, data []byte) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		_, werr := w.Write(data)
		return werr
	}
	buf.WriteByte('\n')
	_, err := buf.WriteTo(w)
	return err
}

func metricsCmd(args []string) error {
	prefix := ""
	if len(args) > 0 {
		prefix = args[0]
	}
	var buf bytes.Buffer
	if err := get("/metrics", &buf); err != nil {
		return err
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if prefix == "" || (strings.HasPrefix(line, prefix) && !strings.HasPrefix(line, "#")) {
			fmt.Println(line)
		}
	}
	return sc.Err()
}

// simDoc parses the shared simulate/vet flag set.
func simDoc(args []string, withForce bool) (map[string]any, error) {
	fs := flag.NewFlagSet("request", flag.ContinueOnError)
	cfg := fs.String("config", "base", "configuration name")
	wl := fs.String("workload", "", "workload name (Table I)")
	force := ""
	if withForce {
		fs.StringVar(&force, "force", "", "forced CARS level: low, high, <N>xlow")
	}
	timeout := fs.Duration("timeout", 0, "per-request deadline")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *wl == "" {
		return nil, fmt.Errorf("-workload is required")
	}
	doc := map[string]any{"config": *cfg, "workload": *wl}
	if force != "" {
		doc["force"] = force
	}
	if *timeout > 0 {
		doc["timeoutMs"] = timeout.Milliseconds()
	}
	return doc, nil
}

func simulate(args []string) error {
	doc, err := simDoc(args, true)
	if err != nil {
		return err
	}
	return post("/v1/simulate", doc)
}

func vetCmd(args []string) error {
	doc, err := simDoc(args, false)
	if err != nil {
		return err
	}
	return post("/v1/vet", doc)
}

func experiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	id := fs.String("id", "", "experiment id (fig1..fig18, tab1..tab3)")
	timeout := fs.Duration("timeout", 0, "per-request deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	doc := map[string]any{"id": *id}
	if *timeout > 0 {
		doc["timeoutMs"] = timeout.Milliseconds()
	}
	return post("/v1/experiment", doc)
}

func submit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	kind := fs.String("kind", "simulate", "job kind: simulate, vet, experiment")
	cfg := fs.String("config", "base", "configuration name")
	wl := fs.String("workload", "", "workload name")
	force := fs.String("force", "", "forced CARS level")
	id := fs.String("id", "", "experiment id")
	timeout := fs.Duration("timeout", 0, "job deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ms := int64(0)
	if *timeout > 0 {
		ms = timeout.Milliseconds()
	}
	doc := map[string]any{"kind": *kind}
	switch *kind {
	case "simulate":
		inner := map[string]any{"config": *cfg, "workload": *wl, "timeoutMs": ms}
		if *force != "" {
			inner["force"] = *force
		}
		doc["simulate"] = inner
	case "vet":
		doc["vet"] = map[string]any{"config": *cfg, "workload": *wl, "timeoutMs": ms}
	case "experiment":
		doc["experiment"] = map[string]any{"id": *id, "timeoutMs": ms}
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	return post("/v1/jobs", doc)
}

func jobGet(args []string, suffix string) error {
	if len(args) != 1 {
		return fmt.Errorf("want exactly one job id")
	}
	var buf bytes.Buffer
	if err := get("/v1/jobs/"+args[0]+suffix, &buf); err != nil {
		return err
	}
	return prettyJSON(os.Stdout, buf.Bytes())
}

// snapshotCmd pretty-prints the daemon's typed /metricsz readout.
func snapshotCmd() error {
	var buf bytes.Buffer
	if err := get("/metricsz", &buf); err != nil {
		return err
	}
	return prettyJSON(os.Stdout, buf.Bytes())
}
