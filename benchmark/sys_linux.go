//go:build linux

package main

import (
	"syscall"
	"time"
)

// processCPU is the user+sys time this process has used (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tmpfsWithRoom reports whether dir is on a tmpfs with at least need bytes free.
func tmpfsWithRoom(dir string, need uint64) bool {
	const tmpfsMagic = 0x01021994
	var fs syscall.Statfs_t
	return syscall.Statfs(dir, &fs) == nil && int64(fs.Type) == tmpfsMagic && fs.Bavail*uint64(fs.Bsize) >= need
}
