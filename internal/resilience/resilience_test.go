package resilience

import (
	"errors"
	"testing"
)

func TestFaultPlanSchedule(t *testing.T) {
	p := &FaultPlan{FailAttempts: []int{2}, StallAttempts: []int{3}, StallConverged: 4}
	if dir, err := p.StartAttempt(); err != nil || dir.Stall {
		t.Fatalf("attempt 1: got %v/%v, want clean", dir, err)
	}
	if _, err := p.StartAttempt(); !errors.Is(err, ErrInjected) {
		t.Fatalf("attempt 2: got %v, want ErrInjected", err)
	}
	dir, err := p.StartAttempt()
	if err != nil || !dir.Stall || dir.MaxConverged != 4 {
		t.Fatalf("attempt 3: got %v/%v, want stall with MaxConverged=4", dir, err)
	}
	if p.Attempts() != 3 {
		t.Fatalf("Attempts() = %d, want 3", p.Attempts())
	}
}
