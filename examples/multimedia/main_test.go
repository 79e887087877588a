package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdoutGolden pins the example's report byte for byte. After a
// change that means to alter it, regenerate the golden file with
//
//	go run . > testdata/stdout.golden
func TestStdoutGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stdout differs from testdata/stdout.golden\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
