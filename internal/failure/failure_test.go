package failure

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"multilogvc/internal/ckpt"
	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/ssd"
	"multilogvc/internal/wal"
)

// TestTaxonomyPinned pins, for every sentinel wrapped once and for the
// multi-sentinel wraps the code builds, the wire code, HTTP status, exit
// code and fault flag its family carries.
func TestTaxonomyPinned(t *testing.T) {
	type want struct {
		code         string
		status, exit int
		fault        bool
	}
	once := func(s error) error { return fmt.Errorf("op: %w", s) }
	for _, tc := range []struct {
		name string
		err  error
		want want
	}{
		{"core.ErrDeadline", once(core.ErrDeadline), want{"deadline", 504, 9, false}},
		{"context.DeadlineExceeded", once(context.DeadlineExceeded), want{"deadline", 504, 9, false}},
		{"core.ErrInterrupted", once(core.ErrInterrupted), want{"shutting_down", 503, 7, false}},
		{"context.Canceled", once(context.Canceled), want{"shutting_down", 503, 7, false}},
		{"csr.ErrIngestBackpressure", once(csr.ErrIngestBackpressure), want{"ingest_backpressure", 503, 1, false}},
		{"csr.ErrVertexOutOfRange", once(csr.ErrVertexOutOfRange), want{"bad_request", 400, 1, false}},
		{"csr.ErrNotDurable", once(csr.ErrNotDurable), want{"not_ready", 503, 1, false}},
		{"wal.ErrSeqGap", once(wal.ErrSeqGap), want{"gap", 410, 1, false}},
		{"ssd.ErrNoSpace", once(ssd.ErrNoSpace), want{"no_space", 507, 8, true}},
		{"ssd.ErrRetriesExhausted", once(ssd.ErrRetriesExhausted), want{"device_fault", 500, 3, true}},
		{"ckpt.ErrCorrupt", once(ckpt.ErrCorrupt), want{"corrupt", 500, 5, false}},
		{"core.ErrCorruptData", once(core.ErrCorruptData), want{"corrupt", 500, 6, true}},
		{"ssd.ErrCorruptPage", once(ssd.ErrCorruptPage), want{"corrupt", 500, 6, true}},
		{"ssd.ErrInjected", once(ssd.ErrInjected), want{"crash", 500, 4, false}},
		{"ssd.ErrTransient", once(ssd.ErrTransient), want{"internal", 500, 1, false}},
		{"core.ErrPanic", once(core.ErrPanic), want{"internal", 500, 1, false}},
		{"unclassified", errors.New("boom"), want{"internal", 500, 1, false}},

		// core's rollback gives up: corrupt data over the page failure.
		{"ErrCorruptData over ErrCorruptPage", fmt.Errorf("%w: %w", core.ErrCorruptData, once(ssd.ErrCorruptPage)),
			want{"corrupt", 500, 6, true}},
		// A context expiring inside the device's retry backoff, as core
		// classifies it.
		{"ErrDeadline over DeadlineExceeded", fmt.Errorf("%w: %w", core.ErrDeadline, once(context.DeadlineExceeded)),
			want{"deadline", 504, 9, false}},
		{"ErrInterrupted over Canceled", fmt.Errorf("%w: %w", core.ErrInterrupted, once(context.Canceled)),
			want{"shutting_down", 503, 7, false}},
		{"ErrRetriesExhausted over ErrTransient", fmt.Errorf("%w after 5 attempts: %w", ssd.ErrRetriesExhausted, ssd.ErrTransient),
			want{"device_fault", 500, 3, true}},
		// Batch isolation wraps only the solo re-run's error.
		{"solo retry deadline", fmt.Errorf("batch failed (%v); solo retry failed: %w", once(ssd.ErrRetriesExhausted), once(core.ErrDeadline)),
			want{"deadline", 504, 9, false}},
		{"solo retry fault", fmt.Errorf("batch failed (%v); solo retry failed: %w", once(ssd.ErrCorruptPage), once(ssd.ErrRetriesExhausted)),
			want{"device_fault", 500, 3, true}},
		// Row order: a shutdown ahead of no-space, retries-exhausted ahead
		// of a crash, a corrupt checkpoint ahead of corrupt data.
		{"ErrInterrupted and ErrNoSpace", errors.Join(ssd.ErrNoSpace, core.ErrInterrupted),
			want{"shutting_down", 503, 7, false}},
		{"ErrRetriesExhausted and ErrInjected", errors.Join(ssd.ErrInjected, ssd.ErrRetriesExhausted),
			want{"device_fault", 500, 3, true}},
		{"ckpt.ErrCorrupt and ErrCorruptPage", errors.Join(ssd.ErrCorruptPage, ckpt.ErrCorrupt),
			want{"corrupt", 500, 5, false}},
	} {
		f := Of(tc.err)
		if got := (want{f.Code, f.Status, f.Exit, f.Fault}); got != tc.want {
			t.Errorf("%s: Of = %+v, want %+v", tc.name, got, tc.want)
		}
	}

	for f, w := range map[*Family]want{
		Overloaded:       {"overloaded", 503, 1, false},
		BreakerOpen:      {"breaker_open", 503, 1, false},
		ReadOnly:         {"read_only", 403, 1, false},
		NotFound:         {"not_found", 404, 1, false},
		MethodNotAllowed: {"bad_request", 405, 1, false},
	} {
		if got := (want{f.Code, f.Status, f.Exit, f.Fault}); got != w {
			t.Errorf("row without a sentinel %+v, want %+v", got, w)
		}
	}
	if Table[len(Table)-1] != Internal {
		t.Error("Internal is not the table's last row")
	}
}

// readmeTable returns the cells of the README table whose header row is
// header, one slice per body row, backticks stripped.
func readmeTable(t *testing.T, header string) [][]string {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	i := slices.Index(lines, header)
	if i < 0 {
		t.Fatalf("README has no table headed %q", header)
	}
	var rows [][]string
	for _, l := range lines[i+2:] {
		if !strings.HasPrefix(l, "|") {
			break
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(l, "|"), "|") {
			cells = append(cells, strings.Trim(strings.TrimSpace(c), "`"))
		}
		rows = append(rows, cells)
	}
	return rows
}

// TestReadmeMatchesTable holds README's wire-code table to the table's
// codes and statuses, and its exit-code table to the families the CLI
// exits with.
func TestReadmeMatchesTable(t *testing.T) {
	var got, want []string
	for _, r := range readmeTable(t, "| code | HTTP | meaning |") {
		got = append(got, r[0]+" "+r[1])
	}
	for _, f := range Table {
		if row := f.Code + " " + strconv.Itoa(f.Status); !slices.Contains(want, row) {
			want = append(want, row)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("README wire codes:\n%v\nwant (failure.Table):\n%v", got, want)
	}

	got, want = nil, nil
	for _, r := range readmeTable(t, "| Code | Family | Meaning | Next step |") {
		if r[0] != "0" {
			got = append(got, r[0]+" "+r[1])
		}
	}
	for _, f := range Table {
		if f.Exit != 1 {
			want = append(want, strconv.Itoa(f.Exit)+" "+f.Code)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("README exit codes:\n%v\nwant (failure.Table):\n%v", got, want)
	}
}
