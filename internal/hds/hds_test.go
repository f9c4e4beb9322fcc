package hds

import "testing"

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Read:    "read",
		Update:  "update",
		Insert:  "insert",
		Remove:  "remove",
		Scan:    "scan",
		Kind(9): "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
