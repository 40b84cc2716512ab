module rover/benchmark

go 1.24

require rover v0.0.0

replace rover => ../
