package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// LoadStream is one parsed sweep response: the events counted, the
// final document, and integrity checks a correct server must pass.
type LoadStream struct {
	Runs     int
	Doc      []byte
	Duped    bool // some benchmark streamed twice
	Complete bool // done event observed
}

// SubmitSweep posts one submission and consumes the whole event stream,
// retrying while the server answers 429. It returns the parsed stream
// and how many rejections were absorbed.
func SubmitSweep(ctx context.Context, client *http.Client, baseURL string, sub Submission) (*LoadStream, int, error) {
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, 0, err
	}
	retries := 0
	for {
		stream, status, err := submitOnce(ctx, client, baseURL, body)
		if err != nil {
			return nil, retries, err
		}
		if status == http.StatusTooManyRequests {
			retries++
			select {
			case <-time.After(50 * time.Millisecond):
				continue
			case <-ctx.Done():
				return nil, retries, ctx.Err()
			}
		}
		if status != http.StatusOK {
			return nil, retries, fmt.Errorf("serve: sweep status %d", status)
		}
		return stream, retries, nil
	}
}

// submitOnce performs a single POST, parsing the NDJSON event stream:
// run events are counted (and checked for duplicates), the result frame
// is captured byte-for-byte, and the done event marks completion.
func submitOnce(ctx context.Context, client *http.Client, baseURL string, body []byte) (*LoadStream, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/api/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, nil
	}
	stream, err := ParseStream(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return stream, resp.StatusCode, nil
}

// ParseStream consumes a sweep event stream: NDJSON lines with one raw
// byte-framed payload after the "result" event.
func ParseStream(r io.Reader) (*LoadStream, error) {
	br := bufio.NewReader(r)
	out := &LoadStream{}
	seen := map[string]bool{}
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		var ev struct {
			Event string `json:"event"`
			Bench string `json:"bench"`
			Bytes int    `json:"bytes"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return out, fmt.Errorf("serve: bad event line %q: %w", line, err)
		}
		switch ev.Event {
		case "run":
			if seen[ev.Bench] {
				out.Duped = true
			}
			seen[ev.Bench] = true
			out.Runs++
		case "result":
			doc := make([]byte, ev.Bytes)
			if _, err := io.ReadFull(br, doc); err != nil {
				return out, fmt.Errorf("serve: truncated result frame: %w", err)
			}
			out.Doc = doc
		case "done":
			out.Complete = true
		case "error":
			return out, fmt.Errorf("serve: sweep error: %s", ev.Error)
		}
	}
}
