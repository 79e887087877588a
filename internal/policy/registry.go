package policy

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse builds a policy from a CLI-style specifier:
//
//	lru | mru | fifo | random[:seed] | lfd | locallfd:<window>
//
// The specifier is case-insensitive.
func Parse(spec string) (Policy, error) {
	name, arg, hasArg := strings.Cut(strings.ToLower(strings.TrimSpace(spec)), ":")
	switch name {
	case "lru":
		return NewLRU(), nil
	case "mru":
		return NewMRU(), nil
	case "fifo":
		return NewFIFO(), nil
	case "random":
		seed := int64(1)
		if hasArg {
			s, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("policy: bad random seed %q: %v", arg, err)
			}
			seed = s
		}
		return NewRandom(seed), nil
	case "lfd":
		return NewLFD(), nil
	case "locallfd":
		if !hasArg {
			return nil, fmt.Errorf("policy: locallfd needs a window, e.g. locallfd:2")
		}
		w, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("policy: bad locallfd window %q: %v", arg, err)
		}
		return NewLocalLFD(w)
	default:
		return nil, fmt.Errorf("policy: unknown policy %q (want lru, mru, fifo, random, lfd or locallfd:<w>)", spec)
	}
}
