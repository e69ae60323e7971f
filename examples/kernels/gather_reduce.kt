# A gather-reduce kernel in the declarative .kt format:
#   strided index stream -> irregular gather -> hot coefficient table
# Run it with:
#   apres_sim --kernel-file examples/kernels/gather_reduce.kt --apres
kernel gather_reduce 64
gen 0 strided base=268435456 warp=1024 iter=49152
gen 1 irregular base=536870912 lines=8192 sharewarps=8 shareiters=2 seed=42
gen 2 zipf base=805306368 lines=96 alpha=1.0 seed=7
gen 3 strided base=1073741824 warp=128 iter=6144
load r0 pc=0x40 gen=0
alu r1 r0
load r2 pc=0x50 gen=1 dep=r1
alu r3 r2
load r4 pc=0x60 gen=2 dep=r3
alu r5 r4 lat=8
alu r6 r5 lat=8
store gen=3 src=r6
