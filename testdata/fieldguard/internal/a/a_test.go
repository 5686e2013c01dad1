package a

import "testing"

func TestRead(t *testing.T) { _ = TestOnly{}.N } // TestOnly.N's only reader
