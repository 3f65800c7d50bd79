package report

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "workload", "misses", "rate")
	tb.Note = "a caption"
	tb.MustRow("canneal", "123", "0.500")
	tb.MustRow("fft", "7", "0.010")
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== demo ==", "a caption", "workload", "canneal", "fft", "0.010"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Right alignment: the misses column values end at the same offset.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 6 {
		t.Fatalf("unexpected line count %d", len(lines))
	}
}

func TestAddRowArityChecked(t *testing.T) {
	tb := NewTable("x", "a", "b")
	if err := tb.addRow("only-one"); err == nil {
		t.Error("short row accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRow did not panic on arity mismatch")
		}
	}()
	tb.MustRow("1", "2", "3")
}

func TestRenderCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.MustRow("v,1", "2") // comma must be quoted
	var b strings.Builder
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("CSV header wrong: %q", out)
	}
	if !strings.Contains(out, `"v,1",2`) {
		t.Errorf("CSV row not quoted: %q", out)
	}
}

func TestRenderMarkdown(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.Note = "caption"
	tb.MustRow("x|y", "2")
	var b strings.Builder
	if err := tb.RenderMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"### demo", "| a | b |", "|---|---|", `x\|y`, "*caption*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestRenderJSON(t *testing.T) {
	tb := NewTable("demo", "workload", "rate")
	tb.Note = "a caption"
	tb.MustRow(`he said "hi", twice`, F(math.NaN()))
	var b strings.Builder
	if err := tb.RenderJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "\n") || strings.Count(out, "\n") != 1 {
		t.Errorf("RenderJSON not one newline-terminated line: %q", out)
	}
	var got struct {
		Title   string     `json:"title"`
		Note    string     `json:"note"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("output not valid JSON: %v\n%s", err, out)
	}
	if got.Title != "demo" || got.Note != "a caption" {
		t.Errorf("title/note wrong: %+v", got)
	}
	if len(got.Rows) != 1 || got.Rows[0][0] != `he said "hi", twice` {
		t.Errorf("quoted cell did not round-trip: %+v", got.Rows)
	}
	// NaN cells survive as the string fmt produced — JSON has no NaN
	// literal, so the table layer must never emit a bare one.
	if got.Rows[0][1] != "NaN" {
		t.Errorf("NaN cell = %q, want \"NaN\"", got.Rows[0][1])
	}
}

func TestRenderJSONEmptyTable(t *testing.T) {
	tb := NewTable("empty", "h")
	var b strings.Builder
	if err := tb.RenderJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "null") {
		t.Errorf("empty table encodes null somewhere: %s", out)
	}
	if !strings.Contains(out, `"rows":[]`) {
		t.Errorf("empty rows not encoded as []: %s", out)
	}
	if strings.Contains(out, `"note"`) {
		t.Errorf("empty note should be omitted: %s", out)
	}
}

func TestMarshalJSONMatchesRenderJSON(t *testing.T) {
	tb := NewTable("x", "a")
	tb.MustRow("1")
	raw, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tb.RenderJSON(&b); err != nil {
		t.Fatal(err)
	}
	if string(raw)+"\n" != b.String() {
		t.Errorf("Marshal and RenderJSON disagree:\n%s\n%s", raw, b.String())
	}
}

func TestFormatters(t *testing.T) {
	if F(0.5) != "0.500" {
		t.Errorf("F = %q", F(0.5))
	}
	if N(42) != "42" {
		t.Errorf("N = %q", N(42))
	}
}

func TestEmptyTableRenders(t *testing.T) {
	tb := NewTable("", "h")
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "h") {
		t.Error("header missing")
	}
}
