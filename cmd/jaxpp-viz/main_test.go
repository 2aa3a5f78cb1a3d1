package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckScheduleFlags(t *testing.T) {
	for _, c := range []struct {
		actors, mb, repeat, width int
		bwd                       float64
		want                      string // "" accepts
	}{
		{3, 6, 2, 96, 2, ""},
		{1, 1, 1, 1, 0.5, ""},
		{0, 6, 2, 96, 2, "-actors 0"},
		{-1, 6, 2, 96, 2, "-actors -1"},
		{3, 0, 2, 96, 2, "-mb 0"},
		{3, 6, 0, 96, 2, "-repeat 0"},
		{3, 6, 2, 0, 2, "-width 0"},
		{3, 6, 2, 96, 0, "-bwd 0"},
		{3, 6, 2, 96, -1, "-bwd -1"},
		{3, 6, 2, 96, math.NaN(), "-bwd NaN"},
		{3, 6, 2, 96, math.Inf(1), "-bwd +Inf"},
	} {
		err := checkScheduleFlags(c.actors, c.mb, c.repeat, c.width, c.bwd)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: refused: %v", c, err)
		case c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), c.want)):
			t.Errorf("%+v: got %v, want an error starting %q", c, err, c.want)
		}
	}
}
