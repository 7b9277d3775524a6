@Deprecated package fixtures.annotations;

import java.io.Reader;
import java.util.List;

// The twin of Plain.java: the same methods, each with annotations on the
// same lines as its code. An annotation is not code, so every method must
// give the same metrics, categories and signature as its plain twin.
@B(x = 1) class Twin<@B T> {
    @a.B(1) private int count;
    private Runnable task = new @B Runnable() { @Override public void run() { tick(); } };

    @B Twin(@B final int count) { this.count = count; }

    @B(x = 1) void empty() {}

    @Override public String toString() { return "twin"; }

    @B public int getCount() { return count; }

    @B public void setCount(@a.B(1) final int count) { this.count = count; }

    @B int local() {
        final @B(x = 1) int u = 2;
        return u;
    }

    int qualified() {
        @a.B(x = 1) int u = 2;
        return u;
    }

    int resource() throws @B Exception {
        try (@a.B(1) final Reader r = open()) {
            return r.read();
        } catch (@a.B(1) final RuntimeException e) {
            return -1;
        }
    }

    Object create() {
        return new @B Object();
    }

    int cast(Object o) {
        return ((@B String) o).length() + (o instanceof @B(2) String ? 1 : 0);
    }

    int[][] grid() {
        return new int @B [3] @B(x = 4) [4];
    }

    Runnable anonymous() {
        return new @B Runnable() {
            public void run() {
                tick();
            }
        };
    }

    <U> @B List<U> generic(List<@B(x = 1) U> xs) {
        return xs;
    }

    int types(java.util.@B List<String> xs, String @B [] ys, @B String @a.B(1) ... rest) {
        for (@B final String s : xs) {
            count += s.length();
        }
        return this.<@B String>first(xs).length() + ys.length + rest.length;
    }

    <U> U first(List<U> xs) { return xs.get(0); }

    void tick() {
        @SuppressWarnings("unused") final class Local { @B int one() { return 1; } }
        count++;
    }

    Reader open() { return null; }

    enum Mode {
        @B ON, @Deprecated OFF;

        @B(x = 1) boolean isOn() { return this == ON; }
    }
}
