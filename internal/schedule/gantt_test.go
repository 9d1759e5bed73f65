package schedule

import (
	"strings"
	"testing"
)

func TestGanttRendering(t *testing.T) {
	var s Schedule
	s.Add(0, 0, r(0, 1), r(5, 1), r(1, 1))
	s.Add(1, 1, r(5, 1), r(10, 1), r(1, 1))
	out := s.Gantt(10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Machine 0 busy with job 0 in the first half, idle after.
	if !strings.Contains(lines[0], "00000.....") {
		t.Errorf("row 0 = %q", lines[0])
	}
	if !strings.Contains(lines[1], ".....11111") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.Contains(lines[2], "T=10") {
		t.Errorf("axis = %q", lines[2])
	}
}

func TestGanttEmpty(t *testing.T) {
	var s Schedule
	if out := s.Gantt(20); !strings.Contains(out, "empty") {
		t.Errorf("empty gantt = %q", out)
	}
}

func TestGanttDefaultWidth(t *testing.T) {
	var s Schedule
	s.Add(0, 0, r(0, 1), r(1, 1), r(1, 1))
	out := s.Gantt(0)
	if len(out) == 0 || !strings.Contains(out, "M0") {
		t.Errorf("default width gantt = %q", out)
	}
}

func TestJobGlyphs(t *testing.T) {
	if jobGlyph(3) != '3' || jobGlyph(10) != 'a' || jobGlyph(35) != 'z' || jobGlyph(36) != '#' {
		t.Error("glyph mapping broken")
	}
}

func TestBusyTime(t *testing.T) {
	var s Schedule
	s.Add(0, 0, r(0, 1), r(4, 1), r(1, 1))
	s.Add(1, 1, r(0, 1), r(2, 1), r(1, 1))
	if got := s.TotalBusyTime(); got.Cmp(r(6, 1)) != 0 {
		t.Errorf("busy = %v, want 6", got)
	}
}
