module lesslog/bench

go 1.22

require lesslog v0.0.0

replace lesslog => ../
