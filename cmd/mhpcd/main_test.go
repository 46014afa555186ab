package main

import (
	"reflect"
	"strings"
	"testing"
)

// -intra is retired but still parsed, so existing command lines keep
// starting the server: 1, its old default, is accepted and every other
// value is a startup error that points to -j.
func TestParseFlagsRetiredIntra(t *testing.T) {
	o, err := parseFlags([]string{"-j", "1", "-intra", "1"})
	if err != nil {
		t.Fatalf("-intra 1: %v", err)
	}
	def, err := parseFlags([]string{"-j", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, def) {
		t.Errorf("-intra 1 changed the parsed options: %+v vs %+v", o, def)
	}
	for _, v := range []string{"2", "4", "auto", "0", "-1", "", "abc"} {
		_, err := parseFlags([]string{"-j", "1", "-intra", v})
		if err == nil {
			t.Errorf("-intra %q accepted", v)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "removed") || !strings.Contains(msg, "-j") {
			t.Errorf("-intra %q: error %q does not say the feature was removed and point to -j", v, msg)
		}
	}
}
