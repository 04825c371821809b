package xmath

import (
	"testing"
	"testing/quick"
)

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 1, 0}, {1, 1, 1}, {5, 2, 3}, {6, 2, 3}, {7, 2, 4}, {100, 7, 15},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv(1,0) did not panic")
		}
	}()
	CeilDiv(1, 0)
}

func TestILog2AndCeilLog2(t *testing.T) {
	cases := []struct{ x, floor, ceil int }{
		{1, 0, 0}, {2, 1, 1}, {3, 1, 2}, {4, 2, 2}, {5, 2, 3},
		{1023, 9, 10}, {1024, 10, 10}, {1025, 10, 11},
	}
	for _, c := range cases {
		if got := ILog2(c.x); got != c.floor {
			t.Errorf("ILog2(%d) = %d, want %d", c.x, got, c.floor)
		}
		if got := CeilLog2(c.x); got != c.ceil {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.x, got, c.ceil)
		}
	}
}

func TestCeilPow2AndIsPow2(t *testing.T) {
	if CeilPow2(1) != 1 || CeilPow2(3) != 4 || CeilPow2(4) != 4 || CeilPow2(33) != 64 {
		t.Error("CeilPow2 wrong")
	}
	for _, x := range []int{1, 2, 4, 1024} {
		if !IsPow2(x) {
			t.Errorf("IsPow2(%d) = false", x)
		}
	}
	for _, x := range []int{0, -4, 3, 12, 1023} {
		if IsPow2(x) {
			t.Errorf("IsPow2(%d) = true", x)
		}
	}
}

func TestISqrtExhaustiveSmall(t *testing.T) {
	for x := 0; x <= 10000; x++ {
		r := ISqrt(x)
		if r*r > x || (r+1)*(r+1) <= x {
			t.Fatalf("ISqrt(%d) = %d", x, r)
		}
	}
}

func TestISqrtProperty(t *testing.T) {
	f := func(v uint32) bool {
		x := int(v % 1_000_000)
		r := ISqrt(x)
		return r*r <= x && (r+1)*(r+1) > x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
