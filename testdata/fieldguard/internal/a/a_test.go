package a

import "testing"

func TestRead(t *testing.T) { _ = TestOnly{}.N } // TestOnly.N's only reader

func TestSet(t *testing.T) { _ = KnobConfig{N: 1} } // KnobConfig.N's only setter
