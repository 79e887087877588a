//go:build !plan9

package resultstore

import "syscall"

// readFile returns the contents of the file at path with one open, one
// read per filled buffer plus the read that sees end of file, and one
// close. os.ReadFile does more for a small file: os.Open tries to
// register every regular file with the runtime poller (fcntl and
// epoll_ctl on Linux, both refused) and ReadFile stats the file to size
// its buffer, which together cost more than reading a 176-byte entry.
// The buffer starts at readFileBuf bytes and doubles whenever it fills.
// An interrupted open or read is retried; any other error, including
// reading a directory, is returned.
func readFile(path string) ([]byte, error) {
	const mode = syscall.O_RDONLY | syscall.O_CLOEXEC
	fd, err := syscall.Open(path, mode, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, mode, 0)
	}
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	buf := make([]byte, readFileBuf)
	n := 0
	for {
		if n == len(buf) {
			buf = append(buf, make([]byte, len(buf))...)
		}
		m, err := syscall.Read(fd, buf[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, err
		}
		if m == 0 {
			return buf[:n], nil
		}
		n += m
	}
}

// readFileBuf is readFile's first buffer size: a result entry (about
// 176 bytes at 2000 applications) fits with room to spare, and a larger
// artifact grows it in a few doublings.
const readFileBuf = 512
