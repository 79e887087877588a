package resultstore

import "os"

// readFile is os.ReadFile on Plan 9, whose syscall.Open takes no
// permission bits (see readfile.go for the other systems).
func readFile(path string) ([]byte, error) { return os.ReadFile(path) }
